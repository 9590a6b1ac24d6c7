# Runs one example for ctest and fails unless it exits 0 and its output
# matches EXPECT (a regular expression):
#   cmake -DEXE=<binary> [-DARGS="<space-separated args>"] -DEXPECT=<regex>
#         -P run_example.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${EXE} ${args} OUTPUT_VARIABLE out
                ERROR_VARIABLE err RESULT_VARIABLE rc)
message("${out}${err}")
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${EXE} exited with ${rc}")
endif()
if(NOT out MATCHES "${EXPECT}")
    message(FATAL_ERROR "${EXE} printed no line matching '${EXPECT}'")
endif()
