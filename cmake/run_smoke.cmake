# Smoke-test driver: runs one binary and fails unless it exits 0 and prints
# something.  Invoked by the smoke_* ctest entries registered in
# bench/CMakeLists.txt and examples/CMakeLists.txt:
#
#   cmake -DSMOKE_BIN=<binary> "-DSMOKE_ARGS=--a=1;--b=2" -P run_smoke.cmake
#
# A usage-error case sets -DSMOKE_EXIT=<code> and -DSMOKE_STDERR=<regex>:
# it then passes only on that exit code with a matching message on stderr.
if(NOT DEFINED SMOKE_BIN)
  message(FATAL_ERROR "SMOKE_BIN not set")
endif()
if(NOT DEFINED SMOKE_EXIT)
  set(SMOKE_EXIT 0)
endif()

execute_process(
  COMMAND ${SMOKE_BIN} ${SMOKE_ARGS}
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)

if(NOT code EQUAL SMOKE_EXIT)
  message(FATAL_ERROR "${SMOKE_BIN} exited with ${code}, expected "
    "${SMOKE_EXIT}\nstdout:\n${out}\nstderr:\n${err}")
endif()

if(NOT SMOKE_EXIT EQUAL 0)
  if(NOT err MATCHES "${SMOKE_STDERR}")
    message(FATAL_ERROR "${SMOKE_BIN} exited ${code} without the expected "
      "message\nstderr:\n${err}")
  endif()
  message(STATUS "${SMOKE_BIN} rejected (${SMOKE_ARGS}): ${err}")
  return()
endif()

string(STRIP "${out}" stripped)
if(stripped STREQUAL "")
  message(FATAL_ERROR "${SMOKE_BIN} produced no output\nstderr:\n${err}")
endif()

message(STATUS "${SMOKE_BIN} OK (${SMOKE_ARGS})")
