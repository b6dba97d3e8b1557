# `uap2p_oracled serve` must refuse a request file with one malformed line
# (exit 1, a message naming line 3 and why) instead of serving it. CASE
# selects the shape; each is its own CTest so a regression names it.
#
# Usage: cmake -DORACLED_TOOL=<uap2p_oracled> -DWORKDIR=<dir> -DCASE=<shape>
#        -P check_oracled_bad_request.cmake
foreach(var ORACLED_TOOL WORKDIR CASE)
  if(NOT ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()

# Line 1 is the header comment, line 2 a valid request; line 3 is bad.
if(CASE STREQUAL "client-no-digits")
  set(bad "abc\n")
  set(why "field has no digits")
elseif(CASE STREQUAL "count-no-digits")
  set(bad "7 x 259:18\n")
  set(why "field has no digits")
elseif(CASE STREQUAL "trailing-text")
  set(bad "7 2 1:3 2:4 garbage\n")
  set(why "trailing text after the last candidate")
elseif(CASE STREQUAL "above-uint32")
  set(bad "7 1 4294967296:3\n")
  set(why "value above UINT32_MAX")
elseif(CASE STREQUAL "unterminated-64k")
  # 0 candidates followed by 70000 blanks: the 64 KiB read buffer fills
  # before the newline arrives.
  string(REPEAT " " 70000 blanks)
  set(bad "0 0${blanks}\n")
  set(why "longer than the 64 KiB line buffer")
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()

set(requests "${WORKDIR}/oracled_bad_${CASE}.txt")
set(ranked "${WORKDIR}/oracled_bad_${CASE}.out")
file(WRITE "${requests}"
  "# uap2p_oracled requests v1\n19 2 259:18 916:52\n${bad}")
file(REMOVE "${ranked}")
execute_process(
  COMMAND "${ORACLED_TOOL}" serve "--requests=${requests}" "--out=${ranked}"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "${CASE}: expected exit 1, got ${rc}\n${out}${err}")
endif()
if(NOT err MATCHES "malformed request line 3: ${why}")
  message(FATAL_ERROR "${CASE}: expected 'malformed request line 3: ${why}' "
                      "on stderr, got:\n${err}")
endif()
if(EXISTS "${ranked}")
  message(FATAL_ERROR "${CASE}: serve wrote ranked output for a bad file")
endif()
message(STATUS "${CASE}: rejected (${why})")
