# Runs BENCH with --json-dir=JSON_DIR, a directory that does not exist,
# and passes only when the bench fails (a non-zero exit or an abort)
# without printing that it wrote a file.
#
#   cmake -DBENCH=<binary> -DJSON_DIR=<missing dir> -P expect_bench_failure.cmake
execute_process(
  COMMAND ${BENCH} --quick --threads=1 --json-dir=${JSON_DIR}
  RESULT_VARIABLE result
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(result EQUAL 0 OR out MATCHES "wrote ")
  message(FATAL_ERROR
    "${BENCH} --json-dir=${JSON_DIR} exited '${result}':\n${out}${err}")
endif()
