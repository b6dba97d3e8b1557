# Every malformed numeric bench flag must be rejected before any work
# runs: exit status 2 and an "error: <flag> ..." line on stderr.
#
# Usage: cmake -DBENCH=<bench binary> -P check_bad_flags.cmake
if(NOT BENCH)
  message(FATAL_ERROR "pass -DBENCH=<bench binary>")
endif()

set(cases
  "--seed-offset=1O"
  "--seed-offset="
  "--seed-offset=-1"
  "--seed-offset= 3"
  "--seed-offset=99999999999999999999999"
  "--metrics-every=abc"
  "--metrics-every=1.5x"
  "--metrics-every="
  "--metrics-every=-5"
  "--metrics-every=nan"
  "--metrics-every=inf"
)
foreach(arg IN LISTS cases)
  string(REGEX REPLACE "=.*" "" flag "${arg}")
  execute_process(COMMAND "${BENCH}" "${arg}"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "'${arg}': expected exit 2, got ${rc}\n${err}")
  endif()
  if(NOT err MATCHES "^error: ${flag} ")
    message(FATAL_ERROR "'${arg}': expected 'error: ${flag} ...' on stderr, "
                        "got:\n${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "'${arg}': the bench ran before rejecting the flag:\n"
                        "${out}")
  endif()
endforeach()
list(LENGTH cases n)
message(STATUS "all ${n} malformed flag values rejected with exit 2")
