# CTest smoke run of the photherm_cli scenario driver, invoked as
#   cmake -DPHOTHERM_CLI=... -DGOLDEN=... -DWORK_DIR=... -DSOURCE_DIR=...
#         -P scenario_smoke.cmake
# Flow: expand the builtin smoke suite to a scenario file, run that file
# twice (serial + cold vs threaded + cached), require the two CSVs to be
# bit-identical, then compare against the checked-in golden CSV within a
# numeric tolerance (absorbs cross-platform floating-point drift while
# still catching real regressions). The serial leg also writes metrics:
# `--threads 1` must bound every parallel region, solver kernels included,
# so the pool must never have been asked to run a job. A usage error must
# name the failing check by its repository-relative path, not by the
# configured source directory, and an overflowing input must be reported as
# an overflow, not as a matrix that is not positive definite. `diff` matches
# an infinite cell only to an equal one, whatever the tolerance, and refuses
# a negative tolerance.

foreach(var PHOTHERM_CLI GOLDEN WORK_DIR SOURCE_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "scenario_smoke.cmake needs -D${var}=...")
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

run_cli(expand builtin:smoke -o ${WORK_DIR}/suite.scn)
run_cli_expect_stderr(
    "event=batch_run scenarios=[0-9]+ global_solves=[0-9]+ cache_hits=0"
    run ${WORK_DIR}/suite.scn --threads 1 --no-cache -o ${WORK_DIR}/serial.csv
    --metrics ${WORK_DIR}/serial_metrics.csv)
run_cli_expect_stderr(
    "event=batch_run scenarios=[0-9]+ global_solves=[0-9]+ cache_hits=[0-9]+"
    run ${WORK_DIR}/suite.scn --threads 4 -o ${WORK_DIR}/threaded.csv)

file(READ ${WORK_DIR}/serial_metrics.csv serial_metrics)
if(NOT serial_metrics MATCHES "# threads=1\n")
  message(FATAL_ERROR "the --threads 1 manifest does not record threads=1")
endif()
if(NOT serial_metrics MATCHES "\npool\\.queue_wait,timer,0,")
  message(FATAL_ERROR "--threads 1 still dispatched parallel regions to the pool "
                      "(pool.queue_wait observations in serial_metrics.csv)")
endif()

file(READ ${WORK_DIR}/serial.csv serial_csv)
file(READ ${WORK_DIR}/threaded.csv threaded_csv)
if(NOT serial_csv STREQUAL threaded_csv)
  message(FATAL_ERROR "batch output is not bit-identical between "
                      "{1 thread, cache off} and {4 threads, cache on}")
endif()

run_cli(diff ${GOLDEN} ${WORK_DIR}/serial.csv --tol 1e-4)

# `--threads` without a count trips a PH_REQUIRE in the CLI: the message
# names the check as tools/photherm_cli.cpp:<line>, with no absolute path.
execute_process(COMMAND ${PHOTHERM_CLI} run builtin:smoke --threads
                RESULT_VARIABLE rv ERROR_VARIABLE err)
if(rv EQUAL 0)
  message(FATAL_ERROR "photherm_cli run builtin:smoke --threads succeeded without a count")
endif()
if(NOT err MATCHES "(^|[ :])tools/photherm_cli\\.cpp:[0-9]+: ")
  message(FATAL_ERROR "the --threads usage error does not name tools/photherm_cli.cpp:<line>; "
                      "got:\n${err}")
endif()
string(FIND "${err}" "${SOURCE_DIR}" source_dir_at)
if(NOT source_dir_at EQUAL -1)
  message(FATAL_ERROR "the --threads usage error leaks the source directory "
                      "${SOURCE_DIR}; got:\n${err}")
endif()

# A chip power of 1e308 overflows the right-hand side of the first solve:
# the runner must fail naming the overflow, not a CG breakdown.
file(WRITE ${WORK_DIR}/overflow.scn "scenario overflow\nchip_power = 1e308\n")
execute_process(COMMAND ${PHOTHERM_CLI} run ${WORK_DIR}/overflow.scn
                        -o ${WORK_DIR}/overflow.csv
                RESULT_VARIABLE rv ERROR_VARIABLE err)
if(rv EQUAL 0)
  message(FATAL_ERROR "photherm_cli run succeeded on chip_power = 1e308")
endif()
if(NOT err MATCHES "not finite" OR err MATCHES "positive definite")
  message(FATAL_ERROR "the chip_power = 1e308 failure does not name the overflow; "
                      "got:\n${err}")
endif()

# diff: an infinite cell matches an equal one and nothing else. Against
# inf, the relative scale and the difference are both infinite, so a
# tolerance test alone would let inf match any number.
file(WRITE ${WORK_DIR}/inf.csv "x\ninf\n")
file(WRITE ${WORK_DIR}/five.csv "x\n5\n")
file(WRITE ${WORK_DIR}/neg_inf.csv "x\n-inf\n")
run_cli(diff ${WORK_DIR}/inf.csv ${WORK_DIR}/inf.csv --tol 1e-9)
foreach(other five neg_inf)
  execute_process(COMMAND ${PHOTHERM_CLI} diff ${WORK_DIR}/inf.csv ${WORK_DIR}/${other}.csv
                          --tol 1e-9
                  RESULT_VARIABLE rv ERROR_VARIABLE err)
  if(NOT rv EQUAL 1 OR NOT err MATCHES "line 2, column 1")
    message(FATAL_ERROR "diff matched inf against ${other}.csv (exit ${rv}); got:\n${err}")
  endif()
endforeach()

# diff: a negative tolerance is a usage error, not an exact comparison.
execute_process(COMMAND ${PHOTHERM_CLI} diff ${WORK_DIR}/five.csv ${WORK_DIR}/five.csv
                        --tol -1
                RESULT_VARIABLE rv ERROR_VARIABLE err)
if(NOT rv EQUAL 2 OR NOT err MATCHES "--tol must be a non-negative")
  message(FATAL_ERROR "diff accepted --tol -1 (exit ${rv}); got:\n${err}")
endif()
