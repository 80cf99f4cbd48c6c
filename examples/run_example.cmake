# Runs one example binary and fails unless it exits 0 and prints
# "<NAME> finished OK". Usage:
#   cmake -DEXAMPLE=<path to binary> -DNAME=<example name> -P run_example.cmake
execute_process(COMMAND ${EXAMPLE}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
message("${out}${err}")
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${NAME} exited with status ${status}")
endif()
string(FIND "${out}" "${NAME} finished OK" found)
if(found EQUAL -1)
  message(FATAL_ERROR "${NAME} did not print '${NAME} finished OK'")
endif()
