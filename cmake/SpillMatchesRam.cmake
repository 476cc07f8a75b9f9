# Runs a scan CLI twice, once with its records in RAM and once with
# --spill-dir, and fails unless both exit 0 with byte-identical stdout and
# the second run wrote spill files (so the flag cannot quietly do nothing).
#
#   cmake -DSPILL_DIR=<dir> -P SpillMatchesRam.cmake -- <program> [args...]
#
# SPILL_DIR is emptied first: spill files are never overwritten.
include(${CMAKE_CURRENT_LIST_DIR}/ScriptCommand.cmake)
if(NOT SPILL_DIR)
  message(FATAL_ERROR "SpillMatchesRam.cmake: -DSPILL_DIR=<dir> is required")
endif()
file(REMOVE_RECURSE "${SPILL_DIR}")

execute_process(COMMAND ${command} RESULT_VARIABLE ram_result OUTPUT_VARIABLE ram_out)
execute_process(COMMAND ${command} --spill-dir "${SPILL_DIR}"
                RESULT_VARIABLE spill_result OUTPUT_VARIABLE spill_out)
if(NOT ram_result STREQUAL "0" OR NOT spill_result STREQUAL "0")
  message(FATAL_ERROR "exit status '${ram_result}' in RAM, '${spill_result}' "
                      "with --spill-dir: ${command}")
endif()
file(GLOB_RECURSE spill_files "${SPILL_DIR}/*.iwspill")
if(NOT spill_files)
  message(FATAL_ERROR "--spill-dir ${SPILL_DIR} got no spill files: ${command}")
endif()
if(NOT ram_out STREQUAL spill_out)
  message(FATAL_ERROR "stdout differs with --spill-dir: ${command}\n"
                      "--- in RAM ---\n${ram_out}\n--- spilled ---\n${spill_out}")
endif()
