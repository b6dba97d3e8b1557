# snapshot-golden: pins the writer's bytes across commits. `uap2p_snapshot
# info` of the 204-router file snapshot-roundtrip wrote lists every
# section's offset, size and hash plus the content and header hashes; any
# change to what write() puts in the file shows up here. The first line
# (the file path) is dropped before comparing.
#
# Usage: cmake -DSNAPSHOT_TOOL=<uap2p_snapshot> -DSNAPSHOT=<file>
#        -DGOLDEN=<expected info output> -DWORKDIR=<dir>
#        -P check_snapshot_golden.cmake
foreach(var SNAPSHOT_TOOL SNAPSHOT GOLDEN WORKDIR)
  if(NOT ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()

execute_process(
  COMMAND "${SNAPSHOT_TOOL}" info "--file=${SNAPSHOT}"
  OUTPUT_VARIABLE info_out ERROR_VARIABLE info_err
  RESULT_VARIABLE info_rc)
if(NOT info_rc EQUAL 0)
  message(FATAL_ERROR "snapshot info failed (rc=${info_rc}):\n"
    "${info_out}${info_err}")
endif()
string(FIND "${info_out}" "\n" path_line_end)
math(EXPR body_start "${path_line_end} + 1")
string(SUBSTRING "${info_out}" ${body_start} -1 info_out)
set(actual "${WORKDIR}/snapshot_info_204.actual.txt")
file(WRITE "${actual}" "${info_out}")

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
  "${actual}" "${GOLDEN}"
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  file(READ "${GOLDEN}" want)
  message(FATAL_ERROR "snapshot info differs from the golden ${GOLDEN}\n"
    "--- golden\n${want}--- actual (${actual})\n${info_out}")
endif()
message(STATUS "snapshot-golden ok: 204-router file matches ${GOLDEN}")
