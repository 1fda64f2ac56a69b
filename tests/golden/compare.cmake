# Run one bench and compare its stdout byte for byte with a golden file:
#   cmake -DBENCH=<binary> -DARGS="<args>" -DGOLDEN=<file> -DACTUAL=<file>
#         [-DPRELOAD=<liballoc_count.so>] -P compare.cmake
# On a mismatch the actual output stays at ACTUAL for `diff`. With PRELOAD,
# the bench runs under the allocation counter, which must report its counts
# on stderr.
separate_arguments(args UNIX_COMMAND "${ARGS}")
set(launcher)
set(capture)
if(PRELOAD)
  set(launcher "${CMAKE_COMMAND}" -E env "LD_PRELOAD=${PRELOAD}")
  set(capture ERROR_VARIABLE err)
endif()
execute_process(COMMAND ${launcher} "${BENCH}" ${args}
                OUTPUT_FILE "${ACTUAL}"
                ${capture}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited with ${rc}")
endif()
if(PRELOAD AND NOT err MATCHES "alloc_count: calls=[1-9][0-9]* bytes=[1-9][0-9]*\n")
  message(FATAL_ERROR "no allocation report from ${PRELOAD}: ${err}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${ACTUAL}"
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "output differs: diff ${GOLDEN} ${ACTUAL}")
endif()
