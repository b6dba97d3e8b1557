# Docs gate: the measured Table 1 and Figure 5 rows in EXPERIMENTS.md must
# equal the committed bench_table1_gnutella golden. The golden itself is
# pinned to the code by table1-golden; this check pins the docs to it.
#
# Usage: cmake -DEXPERIMENTS=<EXPERIMENTS.md> -DGOLDEN_TXT=<stdout golden>
#        -P check_experiments_table1.cmake
foreach(var EXPERIMENTS GOLDEN_TXT)
  if(NOT ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()
file(READ "${EXPERIMENTS}" docs)
file(READ "${GOLDEN_TXT}" golden)

set(num "([0-9.]+)")
set(checked 0)
# Golden rows are "<label>  a  b  c" (column-padded); EXPERIMENTS.md rows
# are "| <label> | paper | a / b / c |" for Table 1 and "| <label> | a |
# b | c |" for Figure 5.
function(compare label docs_regex)
  if(NOT golden MATCHES "\n${label}  +${num}  +${num}  +${num} *\n")
    message(FATAL_ERROR "golden has no '${label}' row")
  endif()
  set(want "${CMAKE_MATCH_1} ${CMAKE_MATCH_2} ${CMAKE_MATCH_3}")
  if(NOT docs MATCHES "${docs_regex}")
    message(FATAL_ERROR "EXPERIMENTS.md has no '${label}' row")
  endif()
  set(got "${CMAKE_MATCH_1} ${CMAKE_MATCH_2} ${CMAKE_MATCH_3}")
  if(NOT got STREQUAL want)
    message(FATAL_ERROR "EXPERIMENTS.md '${label}' row reads ${got}; the "
                        "golden ${GOLDEN_TXT} reads ${want}")
  endif()
  math(EXPR next "${checked} + 1")
  set(checked ${next} PARENT_SCOPE)
endfunction()

foreach(type Ping Pong Query QueryHit)
  compare("${type}"
    "\n\\| ${type} \\| [^|\n]+\\| ${num} / ${num} / ${num} \\|")
endforeach()
foreach(metric "intra-AS overlay edge fraction" "inter-AS overlay edges")
  compare("${metric}"
    "\n\\| ${metric} \\| ${num} \\| ${num} \\| ${num} \\|")
endforeach()
message(STATUS "${checked} EXPERIMENTS.md rows match the Table 1 golden")
