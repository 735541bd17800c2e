# Runs `${CMD} ${ARGS}` (ARGS is one space-separated string) and fails
# unless it exits with exactly ${EXPECT}. Usage:
#   cmake -DCMD=<exe> "-DARGS=<args>" -DEXPECT=<status> -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CMD} ${args} RESULT_VARIABLE status)
if(NOT status EQUAL EXPECT)
    message(FATAL_ERROR "${CMD} ${ARGS}: expected exit ${EXPECT}, got ${status}")
endif()
