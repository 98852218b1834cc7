# Runs `${CMD} ${INPUT}` and passes only if it exits 1 within 5 s with a
# located frontend.limit diagnostic ("line L:C" and the rule id) in its
# output. dpc reports on stderr, dpmerge-lint on stdout; both are checked.
#
#   cmake -DCMD=<tool> -DINPUT=<file.dp> -P expect_limit.cmake
execute_process(COMMAND ${CMD} ${INPUT}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 5)
set(all "${out}${err}")
if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "${CMD} ${INPUT}: exit '${rc}', expected 1\n${all}")
endif()
if(NOT all MATCHES "frontend\\.limit" OR NOT all MATCHES "line [0-9]+:[0-9]+")
  message(FATAL_ERROR "${CMD} ${INPUT}: no located frontend.limit\n${all}")
endif()
