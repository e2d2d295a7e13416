# CTest smoke run of the telemetry plumbing, invoked as
#   cmake -DPHOTHERM_CLI=... -DWORK_DIR=... -P telemetry_smoke.cmake
# Flow: play the builtin transient suite over a fixed horizon untraced,
# then with --trace/--metrics at 1 and 4 threads — every scenario CSV must
# be byte-identical (telemetry never perturbs physics). The trace must be
# well-formed Chrome trace-event JSON with labeled pool workers; the
# metrics CSV must carry solver-iteration, cache-hit and per-scenario
# wall-time rows. A cached `run` leg checks the cache-hit counters count
# real hits, not just seeded zeros. Both formats' manifests name the
# operator and preconditioner that ran, `play --precond` included.

foreach(var PHOTHERM_CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "telemetry_smoke.cmake needs -D${var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY ${WORK_DIR})

function(run_cli)
  execute_process(COMMAND ${PHOTHERM_CLI} ${ARGN} RESULT_VARIABLE rv)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "photherm_cli ${ARGN} failed with exit code ${rv}")
  endif()
endfunction()

function(require_match file regex what)
  file(READ ${file} contents)
  if(NOT contents MATCHES "${regex}")
    message(FATAL_ERROR "${file}: expected ${what} (pattern `${regex}`)")
  endif()
endfunction()

set(play_args play builtin:transient --dt 0.2 --periods 5)
run_cli(${play_args} --threads 1 -o ${WORK_DIR}/untraced.csv)
run_cli(${play_args} --threads 1 -o ${WORK_DIR}/traced1.csv
        --trace ${WORK_DIR}/trace1.json --metrics ${WORK_DIR}/metrics1.csv)
run_cli(${play_args} --threads 4 -o ${WORK_DIR}/traced4.csv
        --trace ${WORK_DIR}/trace4.json --metrics ${WORK_DIR}/metrics4.csv)

# The telemetry-never-perturbs-physics invariant, byte-for-byte at both
# thread counts.
file(READ ${WORK_DIR}/untraced.csv untraced_csv)
foreach(threaded traced1 traced4)
  file(READ ${WORK_DIR}/${threaded}.csv traced_csv)
  if(NOT untraced_csv STREQUAL traced_csv)
    message(FATAL_ERROR "${threaded}.csv differs from the untraced playback: "
                        "--trace/--metrics changed the physics output")
  endif()
endforeach()

# Trace shape: Chrome trace-event JSON with complete spans, the process
# label, and (at 4 threads) labeled pool workers carrying scenario spans.
require_match(${WORK_DIR}/trace1.json "\"traceEvents\"" "a traceEvents array")
require_match(${WORK_DIR}/trace1.json "\"ph\":\"M\".*process_name.*photherm"
              "process_name metadata")
require_match(${WORK_DIR}/trace1.json
              "\"ph\":\"X\",\"name\":\"solver\\.conjugate_gradient\"" "CG solver spans")
require_match(${WORK_DIR}/trace4.json "pool-worker-[0-9]+" "labeled pool workers")
require_match(${WORK_DIR}/trace4.json
              "\"ph\":\"X\",\"name\":\"playback\\.scenario\"" "per-scenario spans")

# Both export formats must carry the run manifest: the CSV as a
# `# key=value` comment block, the trace as a top-level "manifest" object.
require_match(${WORK_DIR}/trace1.json "\"manifest\":{" "a trace manifest object")
require_match(${WORK_DIR}/trace1.json "\"build_type\":\"(debug|release|relwithdebinfo|minsizerel)\""
              "the build type in the trace manifest")
require_match(${WORK_DIR}/trace1.json "\"git_sha\":" "the git sha in the trace manifest")
require_match(${WORK_DIR}/trace4.json "\"threads\":\"4\"" "the runtime thread count")
foreach(trace trace1 trace4)
  require_match(${WORK_DIR}/${trace}.json "\"operator\":\"stencil\"" "the operator manifest entry")
  require_match(${WORK_DIR}/${trace}.json "\"preconditioner\":\"ilu0\""
                "the preconditioner manifest entry")
endforeach()

# Metrics shape: the acceptance-criteria rows. Cache-hit rows are seeded
# (play never touches BatchRunner), solver iterations and per-scenario wall
# time must be live non-zero counts. Timers now carry log2-histogram
# percentiles (integer nanosecond bucket bounds).
foreach(metrics metrics1 metrics4)
  require_match(${WORK_DIR}/${metrics}.csv "# photherm-manifest v1"
                "the manifest comment block")
  require_match(${WORK_DIR}/${metrics}.csv "# build_type=(debug|release|relwithdebinfo|minsizerel)"
                "the build type manifest entry")
  require_match(${WORK_DIR}/${metrics}.csv "# suite=builtin:transient"
                "the suite manifest entry")
  require_match(${WORK_DIR}/${metrics}.csv "# operator=stencil\n" "the operator manifest entry")
  require_match(${WORK_DIR}/${metrics}.csv "# preconditioner=ilu0\n"
                "the preconditioner manifest entry")
  require_match(${WORK_DIR}/${metrics}.csv "metric,kind,count,total,min,max,p50,p90,p99"
                "the metrics header")
  require_match(${WORK_DIR}/${metrics}.csv
                "playback\\.scenario\\.wall,timer,[1-9][0-9]*,[1-9][0-9]*,[0-9]+,[0-9]+,[0-9]+,[0-9]+,[0-9]+"
                "timer percentiles")
  require_match(${WORK_DIR}/${metrics}.csv
                "solver\\.conjugate_gradient\\.iterations,counter,[1-9][0-9]*,[1-9][0-9]*"
                "non-zero CG iteration counts")
  require_match(${WORK_DIR}/${metrics}.csv
                "playback\\.scenario\\.wall,timer,[1-9][0-9]*,[1-9][0-9]*"
                "per-scenario wall-time observations")
  require_match(${WORK_DIR}/${metrics}.csv "batch\\.cache\\.hits,counter,"
                "the cache-hit row")
endforeach()

# Cached batch leg: with the coarse-solve cache on, the smoke suite's
# repeated scenes must record real cache hits, and the batch output must
# stay byte-identical to a traced run of the same suite.
run_cli(expand builtin:smoke -o ${WORK_DIR}/suite.scn)
run_cli(run ${WORK_DIR}/suite.scn --threads 2 -o ${WORK_DIR}/batch.csv)
run_cli(run ${WORK_DIR}/suite.scn --threads 2 -o ${WORK_DIR}/batch_traced.csv
        --trace ${WORK_DIR}/batch_trace.json --metrics ${WORK_DIR}/batch_metrics.csv)
file(READ ${WORK_DIR}/batch.csv batch_csv)
file(READ ${WORK_DIR}/batch_traced.csv batch_traced_csv)
if(NOT batch_csv STREQUAL batch_traced_csv)
  message(FATAL_ERROR "batch output differs with --trace/--metrics on")
endif()
require_match(${WORK_DIR}/batch_metrics.csv
              "batch\\.cache\\.hits,counter,[1-9][0-9]*" "live cache hits")
require_match(${WORK_DIR}/batch_metrics.csv
              "batch\\.scenario\\.wall,timer,[1-9][0-9]*" "batch wall-time observations")
require_match(${WORK_DIR}/batch_trace.json
              "\"ph\":\"X\",\"name\":\"batch\\.scenario\"" "batch scenario spans")
require_match(${WORK_DIR}/batch_metrics.csv "# operator=stencil\n" "the batch operator entry")
require_match(${WORK_DIR}/batch_metrics.csv "# preconditioner=ilu0\n"
              "the batch preconditioner entry")
require_match(${WORK_DIR}/batch_trace.json "\"operator\":\"stencil\"" "the batch operator entry")
require_match(${WORK_DIR}/batch_trace.json "\"preconditioner\":\"ilu0\""
              "the batch preconditioner entry")

# `play --precond` names the preconditioner it was given, in both formats.
run_cli(play builtin:transient --dt 0.2 --periods 1 --precond chebyshev --threads 1
        -o ${WORK_DIR}/chebyshev.csv --trace ${WORK_DIR}/chebyshev_trace.json
        --metrics ${WORK_DIR}/chebyshev_metrics.csv)
require_match(${WORK_DIR}/chebyshev_metrics.csv "# preconditioner=chebyshev\n"
              "the --precond value in the metrics manifest")
require_match(${WORK_DIR}/chebyshev_trace.json "\"preconditioner\":\"chebyshev\""
              "the --precond value in the trace manifest")
