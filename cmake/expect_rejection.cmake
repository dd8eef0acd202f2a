# Runs a command line and succeeds only when the command exits with code 2,
# the usage-error code of featsep's command-line tools, and its combined
# standard output and error match the regular expression EXPECT:
#
#   cmake -DEXPECT=<regex> -P expect_rejection.cmake -- <command> [args...]
#
# A ctest with PASS_REGULAR_EXPRESSION alone ignores the exit code, so a
# tool that printed the message and then exited 0 or 1 would pass. The
# arguments travel as a CMake list, so none of them may contain ';'.

set(command)
set(in_command FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 1 ${last})
  if(in_command)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(in_command TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "usage: cmake -DEXPECT=<regex> -P "
                      "expect_rejection.cmake -- <command> [args...]")
endif()

execute_process(COMMAND ${command}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE output
                ERROR_VARIABLE output)
if(NOT code STREQUAL "2")
  message(FATAL_ERROR "expected exit code 2, got '${code}'; output:\n"
                      "${output}")
endif()
if(NOT output MATCHES "${EXPECT}")
  message(FATAL_ERROR "output does not match '${EXPECT}':\n${output}")
endif()
