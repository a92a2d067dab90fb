# Compares two hbp-bench/1 records (BENCH_*.json) and prints the headline
# perf deltas: wall time, events/sec, wall-per-sim-second, peak RSS, plus
# every deterministic counter, flagging values that moved.  Warns when the
# records ran different SHA-256 kernels, whose timings do not compare.  Pure
# CMake (string(JSON)) so it needs nothing beyond the toolchain the build
# already requires.
#
#   cmake -DBENCH_A=old.json -DBENCH_B=new.json -P tools/bench_diff.cmake
#
# (or use the `tools/bench_diff A B` wrapper).
cmake_minimum_required(VERSION 3.20)

if(NOT DEFINED BENCH_A OR NOT DEFINED BENCH_B)
  message(FATAL_ERROR
    "usage: cmake -DBENCH_A=<old.json> -DBENCH_B=<new.json> -P bench_diff.cmake")
endif()

foreach(side A B)
  if(NOT EXISTS ${BENCH_${side}})
    message(FATAL_ERROR "no such file: ${BENCH_${side}}")
  endif()
  file(READ ${BENCH_${side}} doc_${side})
  string(JSON schema_${side} GET "${doc_${side}}" schema)
  if(NOT schema_${side} STREQUAL "hbp-bench/1")
    message(FATAL_ERROR
      "${BENCH_${side}}: schema is '${schema_${side}}', expected 'hbp-bench/1'")
  endif()
  string(JSON name_${side} GET "${doc_${side}}" name)
endforeach()

if(NOT name_A STREQUAL name_B)
  message(WARNING "comparing different benches: '${name_A}' vs '${name_B}'")
endif()

# Converts a plain non-negative decimal ("12.5", "3") to micro-units in
# `out` (integer, so CMake's integer-only math() can take ratios), or "" if
# the value doesn't parse (exponent notation, negative, non-numeric).
function(to_micro value out)
  if(NOT value MATCHES "^[0-9]+(\\.[0-9]*)?$")
    set(${out} "" PARENT_SCOPE)
    return()
  endif()
  string(REPLACE "." ";" parts "${value}")
  list(GET parts 0 int_part)
  list(LENGTH parts n)
  if(n GREATER 1)
    list(GET parts 1 frac_part)
  else()
    set(frac_part "")
  endif()
  string(SUBSTRING "${frac_part}000000" 0 6 frac_part)
  math(EXPR micro "${int_part} * 1000000 + ${frac_part}")
  set(${out} ${micro} PARENT_SCOPE)
endfunction()

# Prints "  key: a -> b  (+x.xx%)"; the percentage is omitted when either
# value doesn't parse as a plain decimal or a is zero.
function(print_delta key a b)
  set(suffix "")
  to_micro("${a}" a_micro)
  to_micro("${b}" b_micro)
  if(NOT a_micro STREQUAL "" AND NOT b_micro STREQUAL "" AND a_micro GREATER 0)
    math(EXPR delta_bp "(${b_micro} - ${a_micro}) * 10000 / ${a_micro}")
    math(EXPR whole "${delta_bp} / 100")
    math(EXPR cents "${delta_bp} % 100")
    if(cents LESS 0)
      math(EXPR cents "0 - ${cents}")
    endif()
    if(delta_bp GREATER_EQUAL 0)
      set(sign "+")
    elseif(whole EQUAL 0)
      set(sign "-")  # e.g. -0.42%: whole is 0, sign lost without this
    else()
      set(sign "")
    endif()
    if(cents LESS 10)
      set(cents "0${cents}")
    endif()
    set(suffix "  (${sign}${whole}.${cents}%)")
  endif()
  message("  ${key}: ${a} -> ${b}${suffix}")
endfunction()

message("bench_diff: ${name_A}")
message("  A: ${BENCH_A}")
message("  B: ${BENCH_B}")
message("")
message("perf:")
# The SHA-256 kernel is picked from CPUID at start-up (older records lack
# the key).
foreach(side A B)
  string(JSON kernel_${side} ERROR_VARIABLE err GET "${doc_${side}}" perf
         sha256_kernel)
  if(NOT err STREQUAL "NOTFOUND")
    set(kernel_${side} "<missing>")
  endif()
endforeach()
message("  sha256_kernel: ${kernel_A} -> ${kernel_B}")
if(NOT kernel_A STREQUAL kernel_B)
  message(WARNING "different SHA-256 kernels ('${kernel_A}' vs "
                  "'${kernel_B}'): timings do not compare")
endif()
foreach(key wall_seconds events_executed events_per_sec wall_per_sim_second
        peak_rss_bytes peak_event_queue_depth)
  string(JSON va ERROR_VARIABLE ea GET "${doc_A}" perf ${key})
  string(JSON vb ERROR_VARIABLE eb GET "${doc_B}" perf ${key})
  if(ea STREQUAL "NOTFOUND" AND eb STREQUAL "NOTFOUND")
    print_delta(${key} "${va}" "${vb}")
  endif()
endforeach()

# Deterministic counters should only move when the code or config changed;
# flag any drift loudly.
string(JSON counters_a ERROR_VARIABLE err_a GET "${doc_A}" counters)
string(JSON counters_b ERROR_VARIABLE err_b GET "${doc_B}" counters)
if(err_a STREQUAL "NOTFOUND" AND err_b STREQUAL "NOTFOUND")
  message("")
  message("counters:")
  set(moved 0)
  string(JSON n LENGTH "${counters_a}")
  if(n GREATER 0)
    math(EXPR last "${n} - 1")
    foreach(i RANGE ${last})
      string(JSON key MEMBER "${counters_a}" ${i})
      string(JSON va GET "${counters_a}" ${key})
      string(JSON vb ERROR_VARIABLE eb GET "${counters_b}" ${key})
      if(NOT eb STREQUAL "NOTFOUND")
        set(vb "<missing>")
      endif()
      if(va STREQUAL vb)
        message("  ${key}: ${va}")
      else()
        message("  ${key}: ${va} -> ${vb}  [MOVED]")
        set(moved 1)
      endif()
    endforeach()
  endif()
  if(moved)
    message("")
    message(WARNING "deterministic counters moved between the two records")
  endif()
endif()
