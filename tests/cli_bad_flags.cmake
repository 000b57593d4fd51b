# Malformed stagtm command lines must exit 2 with a message naming the
# offending flag (or workload), never abort or run.
#
#   cmake -DSTAGTM=<path to stagtm> -P cli_bad_flags.cmake
#
# Each case is "<arguments>|<text the diagnostic must contain>".
set(cases
  "run list-hi --threads abc|--threads"
  "run list-hi --scale banana|--scale"
  "run list-hi --threads 999|--threads"
  "check list-hi --seeds -1|--seeds"
  "trace --top 0 missing.trace|--top"
  "run no-such-workload|no-such-workload")
set(failed 0)
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 cmdline)
  list(GET parts 1 expect)
  separate_arguments(args UNIX_COMMAND "${cmdline}")
  execute_process(COMMAND ${STAGTM} ${args}
                  RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err
                  TIMEOUT 60)
  string(FIND "${err}" "${expect}" at)
  if(NOT status STREQUAL "2" OR at EQUAL -1)
    message(SEND_ERROR "stagtm ${cmdline}: exit ${status}, stderr:\n${err}")
    set(failed 1)
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "bad command lines were not rejected with exit 2")
endif()
