# CTest smoke run of the photherm_report analysis tool over real
# photherm_cli artifacts, invoked as
#   cmake -DPHOTHERM_CLI=... -DPHOTHERM_REPORT=... -DRULES=... -DWORK_DIR=...
#         -P report_smoke.cmake
# Flow:
#   1. play the builtin transient suite with --metrics at 1 and 4 threads;
#      `photherm_report diff --gate` across the two runs must exit 0 with
#      zero regressions — the deterministic counters are thread-count
#      invariant (the zero-delta acceptance criterion).
#   2. doctor the candidate (inflate the CG iteration total) — the gate
#      must fire: non-zero exit and a REGRESS verdict.
#   3. record a --convergence --trace run (output must stay byte-identical
#      to the unrecorded run) and rebuild the per-solve residual CSV.
#   4. summarize must render both artifact kinds.
#   5. on a hand-written trace (report/self_time_trace.json: a 10 ms span
#      with 3 ms and 4 ms children and a 2 ms grandchild under the 4 ms
#      child) summarize must report each span's self time and the share of
#      its wall its children cover.
#   6. a bench JSON nested 50,000 arrays deep must be refused (exit 2)
#      with a parse error, not overflow the stack.
#   7. a non-finite value on either side of a diff (nan, inf) must violate
#      a `fail` rule (exit 1) and a `warn` rule (a warning).
#   8. bench JSON numbers follow the JSON grammar plus the non-finite
#      spellings the emitters write: `0x10`, `infinity`, `+1`, `.5`, `1.`
#      and `01` are refused (exit 2) with a parse error naming the byte.
#   9. metrics-CSV numbers follow the same grammar plus exactly the
#      non-finite spellings the exporter writes (`nan`, `-nan`, `inf`,
#      `-inf`): `0x10`, `infinity`, `Infinity`, `NaN`, `+1`, `.5`, `1.`,
#      `01` and an empty cell are refused (exit 2) with a message naming
#      the metric and the column.
#  10. summarize orders NaN last: a 200-entry bench JSON whose odd entries
#      have `nan` real times lists the slowest even entries first.

foreach(var PHOTHERM_CLI PHOTHERM_REPORT RULES WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "report_smoke.cmake needs -D${var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY ${WORK_DIR})

function(run_cli)
  execute_process(COMMAND ${PHOTHERM_CLI} ${ARGN} RESULT_VARIABLE rv)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "photherm_cli ${ARGN} failed with exit code ${rv}")
  endif()
endfunction()

# Run photherm_report expecting a specific exit code; stdout is returned in
# `out_var` and stderr in `<out_var>_err` for shape assertions.
function(run_report expect_rv out_var)
  execute_process(COMMAND ${PHOTHERM_REPORT} ${ARGN}
                  RESULT_VARIABLE rv OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rv EQUAL ${expect_rv})
    message(FATAL_ERROR "photherm_report ${ARGN}: expected exit ${expect_rv}, "
                        "got ${rv}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
  set(${out_var}_err "${err}" PARENT_SCOPE)
endfunction()

set(play_args play builtin:transient --dt 0.2 --periods 5)
run_cli(${play_args} --threads 1 -o ${WORK_DIR}/out1.csv
        --metrics ${WORK_DIR}/metrics1.csv)
run_cli(${play_args} --threads 4 -o ${WORK_DIR}/out4.csv
        --metrics ${WORK_DIR}/metrics4.csv)

# 1. Zero-delta acceptance: same suite at different thread counts gates
# clean — every deterministic counter identical, wall drift at most warned.
run_report(0 clean_out
           diff ${WORK_DIR}/metrics1.csv ${WORK_DIR}/metrics4.csv --gate ${RULES})
if(NOT clean_out MATCHES "0 regressions")
  message(FATAL_ERROR "cross-thread diff should report zero regressions; "
                      "got:\n${clean_out}")
endif()

# 2. Doctored candidate: inflating the CG iteration total must trip the
# exact gate on solver.*.iterations.
file(READ ${WORK_DIR}/metrics4.csv doctored)
string(REGEX REPLACE
       "solver\\.conjugate_gradient\\.iterations,counter,([0-9]+),([0-9]+)"
       "solver.conjugate_gradient.iterations,counter,\\1,9\\2"
       doctored "${doctored}")
file(WRITE ${WORK_DIR}/doctored.csv "${doctored}")
run_report(1 fired_out
           diff ${WORK_DIR}/metrics1.csv ${WORK_DIR}/doctored.csv --gate ${RULES})
if(NOT fired_out MATCHES "REGRESS")
  message(FATAL_ERROR "doctored diff should carry a REGRESS verdict; "
                      "got:\n${fired_out}")
endif()

# 3. Convergence capture: recording reuses the iteration's own stopping
# check, so the physics output stays byte-identical; the report rebuilds
# the per-solve residual series from the trace's counter events.
run_cli(${play_args} --threads 1 --convergence -o ${WORK_DIR}/conv_out.csv
        --trace ${WORK_DIR}/conv_trace.json)
file(READ ${WORK_DIR}/out1.csv plain_csv)
file(READ ${WORK_DIR}/conv_out.csv conv_csv)
if(NOT plain_csv STREQUAL conv_csv)
  message(FATAL_ERROR "--convergence changed the playback output")
endif()
run_report(0 conv_report
           convergence ${WORK_DIR}/conv_trace.json -o ${WORK_DIR}/convergence.csv)
file(READ ${WORK_DIR}/convergence.csv convergence_csv)
if(NOT convergence_csv MATCHES "solver,tid,solve,iteration,residual")
  message(FATAL_ERROR "convergence CSV is missing its header")
endif()
if(NOT convergence_csv MATCHES "solver\\.conjugate_gradient\\.residual,[0-9]+,0,0,1\n")
  message(FATAL_ERROR "convergence CSV should open each track with the "
                      "iteration-0 relative residual of exactly 1")
endif()

# 4. summarize renders both artifact kinds.
run_report(0 sum_metrics summarize ${WORK_DIR}/metrics1.csv)
if(NOT sum_metrics MATCHES "timers by total wall")
  message(FATAL_ERROR "metrics summary is missing the timer table")
endif()
if(NOT sum_metrics MATCHES "iters/solve")
  message(FATAL_ERROR "metrics summary is missing the derived solver economics")
endif()
run_report(0 sum_trace summarize ${WORK_DIR}/conv_trace.json)
if(NOT sum_trace MATCHES "spans by total wall")
  message(FATAL_ERROR "trace summary is missing the span roll-up")
endif()

# 5. Self time is a span's duration minus its direct children's; the
# trace lists each span after its children, as the exporter does.
run_report(0 sum_self summarize ${CMAKE_CURRENT_LIST_DIR}/report/self_time_trace.json)
foreach(expect "span\\.parent_10ms \\| +1 \\| +10 \\| +3 \\|"
               "span\\.child_3ms \\| +1 \\| +3 \\| +3 \\|"
               "span\\.child_4ms \\| +1 \\| +4 \\| +2 \\|"
               "span\\.grandchild_2ms \\| +1 \\| +2 \\| +2 \\|")
  if(NOT sum_self MATCHES "${expect}")
    message(FATAL_ERROR "trace summary self times: no row matches `${expect}`; "
                        "got:\n${sum_self}")
  endif()
endforeach()
# cover % is 100 x (total - self) / total: 7 of the parent's 10 ms, 2 of the
# 4 ms child's, none of a leaf's.
foreach(expect "span\\.parent_10ms \\| +1 \\| +10 \\| +3 \\| +70 \\|"
               "span\\.child_3ms \\| +1 \\| +3 \\| +3 \\| +0 \\|"
               "span\\.child_4ms \\| +1 \\| +4 \\| +2 \\| +50 \\|"
               "span\\.grandchild_2ms \\| +1 \\| +2 \\| +2 \\| +0 \\|")
  if(NOT sum_self MATCHES "${expect}")
    message(FATAL_ERROR "trace summary cover %: no row matches `${expect}`; "
                        "got:\n${sum_self}")
  endif()
endforeach()

# 6. Nesting far past any real artifact is a parse error naming the byte
# where the bound was crossed, not a stack overflow (SIGSEGV).
string(REPEAT "[" 50000 open_arrays)
string(REPEAT "]" 50000 close_arrays)
file(WRITE ${WORK_DIR}/deep.json "{\"benchmarks\":${open_arrays}${close_arrays}}")
run_report(2 deep_out summarize ${WORK_DIR}/deep.json)
if(NOT deep_out_err MATCHES "JSON parse error at byte [0-9]+: values nest too deeply")
  message(FATAL_ERROR "deep JSON should be refused by the nesting bound; "
                      "got:\n${deep_out_err}")
endif()

# 7. NaN compares false against any tolerance, and inf -> 100 has a NaN
# relative change: both must violate the rule instead of reading `ok`.
file(WRITE ${WORK_DIR}/drift_base.csv
     "metric,kind,count,total\nnan.wall,timer,1,100\ninf.wall,timer,1,inf\n")
file(WRITE ${WORK_DIR}/drift_cand.csv
     "metric,kind,count,total\nnan.wall,timer,1,nan\ninf.wall,timer,1,100\n")
file(WRITE ${WORK_DIR}/fail.rules "fail *.wall 0.1\n")
file(WRITE ${WORK_DIR}/warn.rules "warn *.wall 0.1\n")
run_report(1 fail_out diff ${WORK_DIR}/drift_base.csv ${WORK_DIR}/drift_cand.csv
           --gate ${WORK_DIR}/fail.rules)
if(NOT fail_out MATCHES "0 warnings, 2 regressions")
  message(FATAL_ERROR "non-finite values should each fail a `fail` rule; "
                      "got:\n${fail_out}")
endif()
run_report(0 warn_out diff ${WORK_DIR}/drift_base.csv ${WORK_DIR}/drift_cand.csv
           --gate ${WORK_DIR}/warn.rules)
if(NOT warn_out MATCHES "2 warnings, 0 regressions")
  message(FATAL_ERROR "non-finite values should each warn under a `warn` rule; "
                      "got:\n${warn_out}")
endif()

# 8. Only JSON numbers load as numbers: a token strtod would also read is a
# parse error naming the first byte that breaks the grammar (the value
# starts at byte 42), not a value.
foreach(token inf -inf nan -nan NaN Infinity -Infinity 0 -0.5 1e-3 2E+8)
  file(WRITE ${WORK_DIR}/number.json
       "{\"benchmarks\":[{\"name\":\"BM_x\",\"real_time\":${token},\"cpu_time\":1}]}")
  run_report(0 number_out summarize ${WORK_DIR}/number.json)
endforeach()
foreach(case 0x10:43 infinity:45 +1:42 .5:42 1.:44 01:43)
  string(REPLACE ":" ";" case "${case}")
  list(GET case 0 token)
  list(GET case 1 byte)
  file(WRITE ${WORK_DIR}/number.json
       "{\"benchmarks\":[{\"name\":\"BM_x\",\"real_time\":${token},\"cpu_time\":1}]}")
  run_report(2 number_out summarize ${WORK_DIR}/number.json)
  if(NOT number_out_err MATCHES "JSON parse error at byte ${byte}: ")
    message(FATAL_ERROR "`${token}` should be refused at byte ${byte}; "
                        "got:\n${number_out_err}")
  endif()
endforeach()

# 9. A metrics-CSV count or total is a decimal number or one of the
# exporter's non-finite spellings; any other token names its cell.
foreach(token nan -nan inf -inf 0 -0.5 1e-3 2E+8)
  file(WRITE ${WORK_DIR}/number.csv "metric,kind,count,total\nx.wall,timer,1,${token}\n")
  run_report(0 number_out summarize ${WORK_DIR}/number.csv)
endforeach()
set(refusal "number\\.csv: metric `x\\.wall`, column `total`: expected a decimal number")
foreach(token 0x10 infinity Infinity NaN +1 .5 1. 01 "")
  file(WRITE ${WORK_DIR}/number.csv "metric,kind,count,total\nx.wall,timer,1,${token}\n")
  run_report(2 number_out summarize ${WORK_DIR}/number.csv)
  if(NOT number_out_err MATCHES "${refusal}")
    message(FATAL_ERROR "metrics-CSV total `${token}` should be refused naming its cell; "
                        "got:\n${number_out_err}")
  endif()
endforeach()
file(WRITE ${WORK_DIR}/number.csv "metric,kind,count,total\nx.wall,timer,0x10,1\n")
run_report(2 number_out summarize ${WORK_DIR}/number.csv)
if(NOT number_out_err MATCHES "metric `x\\.wall`, column `count`: expected a decimal number")
  message(FATAL_ERROR "metrics-CSV count `0x10` should be refused naming its cell; "
                      "got:\n${number_out_err}")
endif()

# 10. std::sort needs a strict weak ordering, which `>` is not once a value
# is NaN: 200 entries take its partitioning path, where a broken ordering
# reads past the range or drops the slowest entries. NaN sorts last.
set(entries "")
foreach(i RANGE 199)
  math(EXPR odd "${i} % 2")
  if(odd)
    set(real_time nan)
  else()
    set(real_time ${i})
  endif()
  if(NOT entries STREQUAL "")
    string(APPEND entries ",")
  endif()
  string(APPEND entries "{\"name\":\"BM_${i}\",\"real_time\":${real_time},\"cpu_time\":1}")
endforeach()
file(WRITE ${WORK_DIR}/nan_bench.json "{\"benchmarks\":[${entries}]}")
run_report(0 nan_out summarize ${WORK_DIR}/nan_bench.json --top 12)
string(REGEX MATCHALL "BM_[0-9]+" listed "${nan_out}")
set(expected "")
foreach(i RANGE 198 176 -2)
  list(APPEND expected BM_${i})
endforeach()
if(NOT listed STREQUAL expected)
  message(FATAL_ERROR "summarize --top 12 should list BM_198, BM_196, ..., BM_176; "
                      "got:\n${nan_out}")
endif()
