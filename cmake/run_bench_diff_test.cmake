# Exercises tools/bench_diff end to end: generates two hbp-bench/1 records
# from one bench binary (same flags, same seed) and diffs them.  Fails if
# the diff errors out or reports moved deterministic counters, or if the
# SHA-256 kernel warning is missing from a diff against a record rewritten
# to name another kernel (and present without the rewrite).
#
#   cmake -DDIFF_BIN=<binary> "-DDIFF_ARGS=--a=1" -DDIFF_TOOL=<bench_diff.cmake>
#         -DDIFF_OUT=<workdir> -P run_bench_diff_test.cmake
foreach(var DIFF_BIN DIFF_TOOL DIFF_OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} not set")
  endif()
endforeach()

file(MAKE_DIRECTORY ${DIFF_OUT})

foreach(run 1 2)
  execute_process(
    COMMAND ${DIFF_BIN} ${DIFF_ARGS} --json ${DIFF_OUT}/rec_${run}.json
    RESULT_VARIABLE code
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${DIFF_BIN} exited with ${code}\n${err}")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND}
    -DBENCH_A=${DIFF_OUT}/rec_1.json
    -DBENCH_B=${DIFF_OUT}/rec_2.json
    -P ${DIFF_TOOL}
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "bench_diff failed (${code})\n${out}\n${err}")
endif()
# Plain message() writes to stderr; merge both streams before checking.
set(all "${out}\n${err}")
if(all MATCHES "deterministic counters moved")
  message(FATAL_ERROR
    "bench_diff flagged moved counters between same-seed runs\n${all}")
endif()
if(NOT all MATCHES "wall_seconds" OR NOT all MATCHES "counters:")
  message(FATAL_ERROR "bench_diff output missing expected sections\n${all}")
endif()
if(all MATCHES "different SHA-256 kernels")
  message(FATAL_ERROR "bench_diff warned about kernels on one host\n${all}")
endif()

file(READ ${DIFF_OUT}/rec_2.json rec)
string(REGEX REPLACE "\"sha256_kernel\": \"[^\"]*\""
       "\"sha256_kernel\": \"other\"" rec "${rec}")
file(WRITE ${DIFF_OUT}/rec_other_kernel.json "${rec}")
execute_process(
  COMMAND ${CMAKE_COMMAND}
    -DBENCH_A=${DIFF_OUT}/rec_1.json
    -DBENCH_B=${DIFF_OUT}/rec_other_kernel.json
    -P ${DIFF_TOOL}
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT code EQUAL 0 OR NOT "${out}\n${err}" MATCHES
   "different SHA-256 kernels")
  message(FATAL_ERROR
    "bench_diff did not warn about different kernels (${code})\n${out}\n${err}")
endif()

message(STATUS "bench_diff OK on ${DIFF_BIN}")
