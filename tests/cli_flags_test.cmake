# Every numeric CLI flag rejects a malformed value and an out-of-range value
# as a usage error: exit 2 and "invalid value for --<flag>" on stderr, before
# any work starts. Run as
#   cmake -DPROCHECKER=<path to prochecker> -P cli_flags_test.cmake

if(NOT PROCHECKER)
  message(FATAL_ERROR "pass -DPROCHECKER=<path to the prochecker binary>")
endif()

# <subcommand and its required arguments>|<flag>|<malformed>|<out of range>
set(cases
  "analyze --profile cls|freshness-limit|x|99999999999999999999"
  "analyze --profile cls|max-states|1e3|99999999999999999999"
  "analyze --profile cls|budget-seconds|abc|-1"
  "analyze --profile cls|jobs|two|0"
  "analyze --profile cls|retries|1.5|17"
  "analyze --profile cls|deadline-per-property|soon|-0.5"
  "analyze --profile cls|mem-ceiling-mb|lots|0"
  "chaos --profile cls|intensity|high|1.5"
  "chaos --profile cls|jobs|x|1025"
  "serve-sul --profile cls|port|http|65536"
  "serve-sul --profile cls|max-sessions|many|65"
  "serve-sul --profile cls|quota-queries|q|99999999999999999999"
  "serve-sul --profile cls|quota-bytes|b|99999999999999999999"
  "serve-sul --profile cls|quota-seconds|s|-1"
  "serve-sul --profile cls|idle-timeout|t|-1"
  "serve-sul --profile cls|drain-seconds|d|-1"
  "learn --profile cls|seed|0xBEEF|99999999999999999999"
  "learn --profile cls|arbitrate|3|2/5"
  "learn --profile cls|deadline|d|-1"
  "learn --profile cls|retries|r|17"
  "learn --profile cls --remote 127.0.0.1:1|batch|b|65"
  "conformance --profile cls --remote 127.0.0.1:1|batch|b|65"
  "diff profile:cls profile:oai|batch|b|65"
  "diff profile:cls profile:oai|seed|s|99999999999999999999"
  "diff profile:cls profile:oai|max-pairs|p|0"
  "diff profile:cls profile:oai|jobs|j|0"
  "diff profile:cls profile:oai|max-states|m|0"
  "diff profile:cls profile:oai|deadline-per-property|d|-1"
  "diff profile:cls profile:oai|retries|r|17"
)

set(failures "")
set(runs 0)
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 command)
  list(GET parts 1 flag)
  list(SUBLIST parts 2 2 values)
  separate_arguments(command_args UNIX_COMMAND "${command}")
  foreach(value IN LISTS values)
    math(EXPR runs "${runs} + 1")
    execute_process(
      COMMAND "${PROCHECKER}" ${command_args} --${flag} ${value}
      RESULT_VARIABLE rc
      OUTPUT_QUIET
      ERROR_VARIABLE err
      TIMEOUT 30)
    string(FIND "${err}" "invalid value for --${flag}" at)
    if(NOT rc EQUAL 2 OR at EQUAL -1)
      string(STRIP "${err}" err)
      list(APPEND failures "${command} --${flag} ${value}: exit ${rc}, stderr '${err}'")
    endif()
  endforeach()
endforeach()

if(failures)
  list(JOIN failures "\n  " report)
  message(FATAL_ERROR "numeric flags not rejected as usage errors:\n  ${report}")
endif()
message(STATUS "${runs} malformed or out-of-range flag values rejected with exit 2")
