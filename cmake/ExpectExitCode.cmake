# Runs a command and fails unless it exits with the expected status — for
# ctest cases that pin a CLI's error exit (WILL_FAIL accepts any non-zero
# status, an abort included).
#
#   cmake -DEXPECTED=2 -P ExpectExitCode.cmake -- <program> [args...]
include(${CMAKE_CURRENT_LIST_DIR}/ScriptCommand.cmake)

execute_process(COMMAND ${command} RESULT_VARIABLE result)
if(NOT result STREQUAL "${EXPECTED}")
  message(FATAL_ERROR "expected exit status ${EXPECTED}, got '${result}': ${command}")
endif()
