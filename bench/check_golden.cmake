# Runs BIN and compares its standard output byte for byte with GOLDEN.
#   cmake -DBIN=<program> -DGOLDEN=<file> -P check_golden.cmake
execute_process(COMMAND ${BIN} OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "output differs from ${GOLDEN}\n"
                      "--- expected\n${expected}--- actual\n${actual}")
endif()
