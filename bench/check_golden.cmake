# Cross-commit golden check: the bench's stdout and its --metrics JSON
# snapshot must equal the committed golden files byte for byte.
#
# Usage: cmake -DBENCH=<bench binary> -DGOLDEN_TXT=<stdout golden>
#        -DGOLDEN_METRICS=<metrics golden> [-DWORKDIR=<dir>]
#        -P check_golden.cmake
foreach(var BENCH GOLDEN_TXT GOLDEN_METRICS)
  if(NOT ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()
if(NOT WORKDIR)
  set(WORKDIR "${CMAKE_CURRENT_BINARY_DIR}")
endif()

get_filename_component(bench_name "${BENCH}" NAME)
set(out_txt "${WORKDIR}/${bench_name}.golden-run.txt")
set(out_metrics "${WORKDIR}/${bench_name}.golden-run.metrics.json")

execute_process(COMMAND "${BENCH}" "--metrics=${out_metrics}"
  OUTPUT_FILE "${out_txt}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()

function(require_same actual golden)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    "${actual}" "${golden}"
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${actual} differs from the golden ${golden}")
  endif()
endfunction()
require_same("${out_txt}" "${GOLDEN_TXT}")
require_same("${out_metrics}" "${GOLDEN_METRICS}")
message(STATUS "stdout and --metrics match the goldens byte for byte")
