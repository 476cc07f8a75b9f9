# Sets `command` to the arguments after "--" of a script-mode call,
#   cmake [-D...] -P <script>.cmake -- <program> [args...]
# and fails if there are none.
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
  message(FATAL_ERROR "${CMAKE_SCRIPT_MODE_FILE}: no command after --")
endif()
