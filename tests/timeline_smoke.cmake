# CTest smoke run of the photherm_cli timeline playback, invoked as
#   cmake -DPHOTHERM_CLI=... -DGOLDEN=... -DWORK_DIR=... -P timeline_smoke.cmake
# Flow: play the builtin transient suite over a fixed horizon twice (serial
# vs threaded — the time-series CSVs must be bit-identical, the
# TimelineRunner determinism guarantee), then compare against the checked-in
# golden CSV within a numeric tolerance (absorbs cross-platform
# floating-point drift while still catching real regressions). Bad options
# fail with exit code 2 before any playback: a non-positive settle
# tolerance before the quantized-duty warnings, a preconditioner other
# than ilu0 or chebyshev while the arguments are read.

foreach(var PHOTHERM_CLI GOLDEN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "timeline_smoke.cmake needs -D${var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY ${WORK_DIR})

function(run_cli)
  execute_process(COMMAND ${PHOTHERM_CLI} ${ARGN} RESULT_VARIABLE rv)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "photherm_cli ${ARGN} failed with exit code ${rv}")
  endif()
endfunction()

# Like run_cli, but also requires the stable key=value stats line on
# stderr — the machine-readable contract scripts grep for.
function(run_cli_expect_stderr regex)
  execute_process(COMMAND ${PHOTHERM_CLI} ${ARGN} RESULT_VARIABLE rv ERROR_VARIABLE err)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "photherm_cli ${ARGN} failed with exit code ${rv}")
  endif()
  if(NOT err MATCHES "${regex}")
    message(FATAL_ERROR "photherm_cli ${ARGN}: stderr does not match "
                        "`${regex}`; got:\n${err}")
  endif()
endfunction()

set(play_stats_regex
    "event=timeline_play scenarios=[0-9]+ steps=[0-9]+ cg_iterations=[0-9]+ settled=[0-9]+ periodic=[0-9]+ paused=[0-9]+")
set(play_args play builtin:transient --dt 0.2 --periods 5)
run_cli_expect_stderr("${play_stats_regex}"
                      ${play_args} --threads 1 -o ${WORK_DIR}/serial.csv)
run_cli_expect_stderr("${play_stats_regex}"
                      ${play_args} --threads 4 -o ${WORK_DIR}/threaded.csv)

file(READ ${WORK_DIR}/serial.csv serial_csv)
file(READ ${WORK_DIR}/threaded.csv threaded_csv)
if(NOT serial_csv STREQUAL threaded_csv)
  message(FATAL_ERROR "timeline playback is not bit-identical between "
                      "1 and 4 threads")
endif()

# Progress heartbeat: --progress N emits the stable key=value line on
# stderr every N steps and must not perturb the physics output.
set(progress_regex
    "event=playback_progress scenario=[^ ]+ step=[0-9]+ time=[0-9.eE+-]+ dt=[0-9.eE+-]+ max_delta=[0-9.eE+-]+")
run_cli_expect_stderr("${progress_regex}"
                      ${play_args} --threads 1 --progress 3
                      -o ${WORK_DIR}/progress.csv)
file(READ ${WORK_DIR}/progress.csv progress_csv)
if(NOT serial_csv STREQUAL progress_csv)
  message(FATAL_ERROR "--progress changed the playback output")
endif()

run_cli(diff ${GOLDEN} ${WORK_DIR}/serial.csv --tol 1e-4)

# Exits 2 with a message matching `regex` and writes no CSV and no
# warning: the options were refused before anything played.
function(expect_refused_before_playback regex)
  file(REMOVE ${WORK_DIR}/refused.csv)
  execute_process(COMMAND ${PHOTHERM_CLI} ${ARGN} -o ${WORK_DIR}/refused.csv
                  RESULT_VARIABLE rv ERROR_VARIABLE err)
  if(NOT rv EQUAL 2)
    message(FATAL_ERROR "photherm_cli ${ARGN}: expected exit code 2, got ${rv}; "
                        "stderr:\n${err}")
  endif()
  if(NOT err MATCHES "${regex}")
    message(FATAL_ERROR "photherm_cli ${ARGN}: stderr does not match `${regex}`; "
                        "got:\n${err}")
  endif()
  if(err MATCHES "warning:" OR EXISTS ${WORK_DIR}/refused.csv)
    message(FATAL_ERROR "photherm_cli ${ARGN} warned or wrote a CSV before refusing "
                        "its options; stderr:\n${err}")
  endif()
endfunction()

expect_refused_before_playback("settle tolerance must be positive"
                               play builtin:transient --tol -1)
# Every playback solves with ILU(0); there is no preconditioner to pick.
expect_refused_before_playback("unknown option `--precond` for play"
                               play builtin:transient --precond chebyshev)
