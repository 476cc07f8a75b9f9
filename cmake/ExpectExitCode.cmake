# Runs a command and fails unless it exits with the expected status — for
# ctest cases that pin a CLI's error exit (WILL_FAIL accepts any non-zero
# status, an abort included).
#
#   cmake -DEXPECTED=2 -P ExpectExitCode.cmake -- <program> [args...]
set(command)
set(in_command OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(index RANGE ${last})
  if(in_command)
    list(APPEND command "${CMAKE_ARGV${index}}")
  elseif(CMAKE_ARGV${index} STREQUAL "--")
    set(in_command ON)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "ExpectExitCode.cmake: no command after --")
endif()

execute_process(COMMAND ${command} RESULT_VARIABLE result)
if(NOT result STREQUAL "${EXPECTED}")
  message(FATAL_ERROR "expected exit status ${EXPECTED}, got '${result}': ${command}")
endif()
