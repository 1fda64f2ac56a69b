# Run one bench and compare its stdout byte for byte with a golden file:
#   cmake -DBENCH=<binary> -DARGS="<args>" -DGOLDEN=<file> -DACTUAL=<file>
#         -P compare.cmake
# On a mismatch the actual output stays at ACTUAL for `diff`.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BENCH}" ${args}
                OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${ACTUAL}"
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "output differs: diff ${GOLDEN} ${ACTUAL}")
endif()
