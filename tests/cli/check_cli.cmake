# Runs the grapr CLI once and checks its exit code and output:
#
#   cmake -DGRAPR=<binary> -DARGS="<arguments>" -DEXIT=<code>
#         [-DEXPECT=<regex>] [-DREJECT=<regex>]
#         [-DCOUNT_REGEX=<regex> -DCOUNT=<n>] -P check_cli.cmake
#
# EXPECT must match stdout+stderr, REJECT must not, and COUNT_REGEX must
# match exactly COUNT times.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${GRAPR} ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
set(all "${out}${err}")
if(NOT rc EQUAL EXIT)
  message(FATAL_ERROR "exit code ${rc}, expected ${EXIT}:\n${all}")
endif()
if(DEFINED EXPECT AND NOT all MATCHES "${EXPECT}")
  message(FATAL_ERROR "output does not match '${EXPECT}':\n${all}")
endif()
if(DEFINED REJECT AND all MATCHES "${REJECT}")
  message(FATAL_ERROR "output matches '${REJECT}':\n${all}")
endif()
if(DEFINED COUNT_REGEX)
  string(REGEX MATCHALL "${COUNT_REGEX}" hits "${all}")
  list(LENGTH hits found)
  if(NOT found EQUAL COUNT)
    message(FATAL_ERROR
            "'${COUNT_REGEX}' matched ${found} times, expected ${COUNT}:\n${all}")
  endif()
endif()
