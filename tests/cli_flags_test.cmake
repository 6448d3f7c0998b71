# Every numeric CLI flag, --remote's host:port and --properties' list of
# catalog ids reject a malformed value and an out-of-range value as a usage
# error: exit 2 and "invalid value for --<flag>" on stderr, before any work
# starts. So do an option the subcommand does not take ("unknown option
# --<flag>"), a value flag with nothing after it ("missing value for
# --<flag>") and a malformed diff side spec ("bad side spec"). A file the command cannot write (conformance --log into a
# missing directory) is a failure, not a usage error: exit 1 and "cannot
# write <path>" on stderr, never a "log written" claim. Run as
#   cmake -DPROCHECKER=<path to prochecker> -P cli_flags_test.cmake

if(NOT PROCHECKER)
  message(FATAL_ERROR "pass -DPROCHECKER=<path to the prochecker binary>")
endif()

# <subcommand and its required arguments>|<flag>|<bad value>...: each row
# below gives a malformed and an out-of-range value.
set(cases
  "analyze --profile cls|freshness-limit|x|99999999999999999999"
  "analyze --profile cls|max-states|1e3|99999999999999999999"
  "analyze --profile cls|jobs|two|0"
  "analyze --profile cls|retries|1.5|17"
  "analyze --profile cls|deadline-per-property|soon|-0.5"
  "analyze --profile cls|mem-ceiling-mb|lots|0"
  "analyze --profile cls|properties|S01,,S02|S99"
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
  "learn --profile cls --remote 127.0.0.1:1|batch|1.5|0"
  "learn --profile cls|remote|localhost|127.0.0.1:65536"
  "conformance --profile cls|remote|localhost|127.0.0.1:65536"
  "diff profile:cls profile:oai|batch|b|65"
  "diff profile:cls profile:oai|batch|1.5|0"
  "diff profile:cls profile:oai|seed|s|99999999999999999999"
  "diff profile:cls profile:oai|max-pairs|p|0"
  "diff profile:cls profile:oai|jobs|j|0"
  "diff profile:cls profile:oai|max-states|m|0"
  "diff profile:cls profile:oai|deadline-per-property|d|-1"
  "diff profile:cls profile:oai|retries|r|17"
  # A sign, leading whitespace or a non-finite real is malformed too: "-1"
  # must not wrap to 2^64-1, and NaN fails every range compare.
  "analyze --profile cls|max-states|-1|+5"
  "analyze --profile cls|deadline-per-property|nan|inf"
  "serve-sul --profile cls|quota-queries|-1| 7"
  "learn --profile cls|seed|-1"
  "learn --profile cls|remote|127.0.0.1:+80"
  "chaos --profile cls|intensity|nan"
  "diff profile:cls profile:oai|max-pairs|-1"
)

# <subcommand and its required arguments>|<option it does not take>: a
# removed flag (--budget-seconds, conformance's --batch) or a misspelt one
# must not silently run with the default.
set(unknown_cases
  "analyze --profile cls|budget-seconds"
  "analyze --profile cls|max-state"
  "diff profile:cls profile:oai|budget-seconds"
  "conformance --profile cls --remote 127.0.0.1:1|batch"
)

set(failures "")
set(runs 0)

# Runs prochecker with `args` and expects exit `code` with `diagnostic` on
# stderr.
function(expect_exit code args diagnostic)
  math(EXPR runs "${runs} + 1")
  set(runs ${runs} PARENT_SCOPE)
  execute_process(
    COMMAND "${PROCHECKER}" ${args}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err
    TIMEOUT 30)
  string(FIND "${err}" "${diagnostic}" at)
  if(NOT rc EQUAL code OR at EQUAL -1)
    string(STRIP "${err}" err)
    list(JOIN args " " line)
    list(APPEND failures "${line}: exit ${rc}, stderr '${err}'")
    set(failures "${failures}" PARENT_SCOPE)
  endif()
endfunction()

foreach(case IN LISTS cases)
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 command)
  list(GET parts 1 flag)
  list(SUBLIST parts 2 -1 values)
  separate_arguments(command_args UNIX_COMMAND "${command}")
  foreach(value IN LISTS values)
    expect_exit(2 "${command_args};--${flag};${value}" "invalid value for --${flag}")
  endforeach()
endforeach()

foreach(case IN LISTS unknown_cases)
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 command)
  list(GET parts 1 flag)
  separate_arguments(command_args UNIX_COMMAND "${command}")
  expect_exit(2 "${command_args};--${flag};1" "unknown option --${flag}")
endforeach()

# A value flag at the end of the line with no value.
expect_exit(2 "analyze;--profile;cls;--max-states" "missing value for --max-states")

# A malformed diff side spec, on either side, beside a side that degrades
# (nothing listens on port 1).
expect_exit(2 "diff;nonsense;remote:127.0.0.1:1" "bad side spec 'nonsense'")
expect_exit(2 "diff;remote:127.0.0.1:1;nonsense" "bad side spec 'nonsense'")

# A log file that cannot be written.
set(unwritable "${CMAKE_CURRENT_BINARY_DIR}/no_such_dir/conformance.log")
expect_exit(1 "conformance;--profile;cls;--log;${unwritable}" "cannot write ${unwritable}")

if(failures)
  list(JOIN failures "\n  " report)
  message(FATAL_ERROR "bad invocations not rejected:\n  ${report}")
endif()
message(STATUS "${runs} bad invocations rejected")
