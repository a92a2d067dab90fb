# Filters an exported causal trace (the long-format CSV written by
# `--trace=run.csv`: t_ns,verb,node,node_name,id,cause,a,b) by node id,
# trace id, and/or verb, prints the matching events, and summarises the
# back-propagation wave they form (first/last time, verbs seen, control
# milestones in order).  Pure CMake (file(STRINGS) + string ops) so it needs
# nothing beyond the toolchain the build already requires.
#
#   cmake -DTRACE=run.csv [-DNODE=<id>] [-DID=<uid>] [-DVERB=<verb>]
#         [-DLIMIT=<n>] -P tools/trace_query.cmake
#
# -DID matches the event's id OR cause column, so querying the uid of the
# packet that triggered a wave pulls every control event it caused.
# (or use the wrapper: `tools/trace_query run.csv [--node=<id>] [--id=<uid>]
# [--verb=<verb>] [--limit=<n>]`).
cmake_minimum_required(VERSION 3.20)

if(NOT DEFINED TRACE)
  message(FATAL_ERROR
    "usage: cmake -DTRACE=<trace.csv> [-DNODE=<id>] [-DID=<uid>] "
    "[-DVERB=<verb>] [-DLIMIT=<n>] -P trace_query.cmake")
endif()
if(NOT EXISTS ${TRACE})
  message(FATAL_ERROR "no such file: ${TRACE}")
endif()
if(NOT DEFINED LIMIT)
  set(LIMIT 40)
endif()

# Formats integer nanoseconds as zero-padded seconds ("0.003000000").
function(fmt_seconds ns out)
  string(LENGTH "${ns}" len)
  if(len LESS 10)
    math(EXPR need "10 - ${len}")
    string(REPEAT "0" ${need} zeros)
    set(ns "${zeros}${ns}")
    set(len 10)
  endif()
  math(EXPR cut "${len} - 9")
  string(SUBSTRING "${ns}" 0 ${cut} whole)
  string(SUBSTRING "${ns}" ${cut} 9 frac)
  set(${out} "${whole}.${frac}" PARENT_SCOPE)
endfunction()

# Control-plane verbs that mark back-propagation wave milestones, in the
# order the protocol emits them (used only for labelling the summary).
set(wave_verbs
  window_start honeypot_hit hbp_activate honeypot_request direct_request
  session_open divert upstream intra_trace ingress_reached local_request
  intermediate_report capture honeypot_cancel session_close window_end
  pushback_request pushback_limit pushback_cancel)

file(STRINGS ${TRACE} lines)
list(POP_FRONT lines header)
if(NOT header STREQUAL "t_ns,verb,node,node_name,id,cause,a,b")
  message(FATAL_ERROR
    "${TRACE}: not a trace CSV (header is '${header}'); export one with "
    "--trace=run.csv")
endif()

set(matched 0)
set(shown 0)
set(first_t "")
set(last_t "")
set(seen_verbs "")
set(seen_nodes "")
set(milestones "")

foreach(line IN LISTS lines)
  string(REPLACE "," ";" f "${line}")
  list(LENGTH f n)
  if(NOT n EQUAL 8)
    continue()
  endif()
  list(GET f 0 t_ns)
  list(GET f 1 verb)
  list(GET f 2 node)
  list(GET f 3 node_name)
  list(GET f 4 id)
  list(GET f 5 cause)
  list(GET f 6 a)
  list(GET f 7 b)

  if(DEFINED NODE AND NOT node STREQUAL "${NODE}")
    continue()
  endif()
  if(DEFINED VERB AND NOT verb STREQUAL "${VERB}")
    continue()
  endif()
  if(DEFINED ID AND NOT id STREQUAL "${ID}" AND NOT cause STREQUAL "${ID}")
    continue()
  endif()

  math(EXPR matched "${matched} + 1")
  if(first_t STREQUAL "")
    set(first_t ${t_ns})
  endif()
  set(last_t ${t_ns})
  if(NOT verb IN_LIST seen_verbs)
    list(APPEND seen_verbs ${verb})
  endif()
  if(NOT node IN_LIST seen_nodes)
    list(APPEND seen_nodes ${node})
  endif()

  fmt_seconds(${t_ns} t_sec)
  set(where "node=${node}")
  if(NOT node_name STREQUAL "")
    set(where "node=${node}(${node_name})")
  endif()
  if(verb IN_LIST wave_verbs)
    list(APPEND milestones
      "  t=${t_sec}s ${verb} ${where} id=${id} cause=${cause} a=${a} b=${b}")
  endif()
  if(shown LESS LIMIT)
    math(EXPR shown "${shown} + 1")
    message(
      "  t=${t_sec}s ${verb} ${where} id=${id} cause=${cause} a=${a} b=${b}")
  endif()
endforeach()

if(matched EQUAL 0)
  message(FATAL_ERROR "no events matched the filter")
endif()
if(shown LESS matched)
  math(EXPR hidden "${matched} - ${shown}")
  message("  ... ${hidden} more (raise -DLIMIT to show them)")
endif()

message("")
message("summary:")
fmt_seconds(${first_t} first_sec)
fmt_seconds(${last_t} last_sec)
list(LENGTH seen_nodes node_count)
list(JOIN seen_verbs ", " verb_list)
message("  ${matched} events over t=[${first_sec}s, ${last_sec}s]")
message("  nodes touched: ${node_count}")
message("  verbs seen: ${verb_list}")

list(LENGTH milestones n_milestones)
if(n_milestones GREATER 0)
  message("")
  message("back-propagation wave milestones:")
  set(wave_shown 0)
  foreach(m IN LISTS milestones)
    if(wave_shown LESS 30)
      message("${m}")
      math(EXPR wave_shown "${wave_shown} + 1")
    endif()
  endforeach()
  if(n_milestones GREATER 30)
    math(EXPR hidden "${n_milestones} - 30")
    message("  ... ${hidden} more")
  endif()
endif()
