# Every malformed numeric tool flag must be rejected before any work runs:
# exit status 2, an "error: <flag> ..." line on stderr, nothing on stdout
# and no output file. Runs uap2p_snapshot write and uap2p_oracled
# gen-requests over the same bad values.
#
# Usage: cmake -DSNAPSHOT_TOOL=<uap2p_snapshot> -DORACLED_TOOL=<uap2p_oracled>
#        -DWORKDIR=<dir> -P check_bad_flags.cmake
foreach(var SNAPSHOT_TOOL ORACLED_TOOL WORKDIR)
  if(NOT ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()

set(cases
  "--transit=2x"
  "--routers-per-as=abc"
  "--peering=nan"
  "--seed="
)
set(out_file "${WORKDIR}/bad_flags.out")
set(checked 0)
function(expect_rejected tool command)
  foreach(arg IN LISTS cases)
    string(REGEX REPLACE "=.*" "" flag "${arg}")
    file(REMOVE "${out_file}")
    execute_process(COMMAND "${tool}" ${command} "--out=${out_file}" "${arg}"
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err
      RESULT_VARIABLE rc)
    set(what "${tool} ${command} '${arg}'")
    if(NOT rc EQUAL 2)
      message(FATAL_ERROR "${what}: expected exit 2, got ${rc}\n${out}${err}")
    endif()
    if(NOT err MATCHES "^error: ${flag} ")
      message(FATAL_ERROR "${what}: expected 'error: ${flag} ...' on stderr, "
                          "got:\n${err}")
    endif()
    if(NOT out STREQUAL "" OR EXISTS "${out_file}")
      message(FATAL_ERROR "${what}: the tool ran before rejecting the flag:\n"
                          "${out}")
    endif()
    math(EXPR checked "${checked} + 1")
  endforeach()
  set(checked ${checked} PARENT_SCOPE)
endfunction()

expect_rejected("${SNAPSHOT_TOOL}" write)
expect_rejected("${ORACLED_TOOL}" gen-requests)
message(STATUS "all ${checked} malformed tool flag values rejected with exit 2")
