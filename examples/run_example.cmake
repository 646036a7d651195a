# Runs one example binary on its bundled workload and checks that it exits 0
# and prints something on stdout.
#   cmake -DEXAMPLE=<path to binary> -P run_example.cmake
execute_process(COMMAND "${EXAMPLE}" RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${rc}\n${err}")
endif()
string(STRIP "${out}" out)
if(out STREQUAL "")
  message(FATAL_ERROR "${EXAMPLE} printed nothing on stdout\n${err}")
endif()
