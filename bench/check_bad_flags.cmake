# Every malformed numeric bench flag and every unknown flag must be
# rejected before any work runs: exit status 2 and an "error: <flag> ..."
# or "error: unknown flag <arg>" line on stderr. --help must print the
# flag list and exit 0 without running the bench.
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

set(unknown
  "--serail"
  "--bogus=1"
)
foreach(arg IN LISTS unknown)
  execute_process(COMMAND "${BENCH}" "${arg}"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "'${arg}': expected exit 2, got ${rc}\n${err}")
  endif()
  if(NOT err STREQUAL "error: unknown flag ${arg}\n")
    message(FATAL_ERROR "'${arg}': expected 'error: unknown flag ${arg}' on "
                        "stderr, got:\n${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "'${arg}': the bench ran before rejecting the flag:\n"
                        "${out}")
  endif()
endforeach()

execute_process(COMMAND "${BENCH}" --help
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "'--help': expected exit 0, got ${rc}\n${err}")
endif()
if(NOT out MATCHES "^usage: " OR NOT out MATCHES "--serial")
  message(FATAL_ERROR "'--help': expected the flag list, got:\n${out}")
endif()
# print_header's banner opens every bench's output.
if(out MATCHES "reproduces: ")
  message(FATAL_ERROR "'--help': the bench ran instead of exiting:\n${out}")
endif()

list(LENGTH cases n)
list(LENGTH unknown m)
message(STATUS "all ${n} malformed flag values and ${m} unknown flags "
               "rejected with exit 2; --help exits 0")
