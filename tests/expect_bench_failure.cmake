# Runs a bench with its arguments plus --json-dir=JSON_DIR, a directory
# that does not exist, and passes only when the bench exits 1, names a
# file under JSON_DIR on stderr and prints no "wrote " line.
#
#   cmake -DJSON_DIR=<missing dir> -P expect_bench_failure.cmake <bench> [args...]
# The bench and its arguments are everything after the script's path.
set(command)
set(after_p -1)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_p EQUAL 1)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(after_p EQUAL 0 OR CMAKE_ARGV${i} STREQUAL "-P")
    math(EXPR after_p "${after_p} + 1")
  endif()
endforeach()
execute_process(
  COMMAND ${command} --json-dir=${JSON_DIR}
  RESULT_VARIABLE result
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
string(FIND "${err}" "${JSON_DIR}/" named)
if(NOT result EQUAL 1 OR named EQUAL -1 OR out MATCHES "wrote ")
  list(JOIN command " " shown)
  message(FATAL_ERROR
    "${shown} --json-dir=${JSON_DIR} exited '${result}':\n${out}${err}")
endif()
