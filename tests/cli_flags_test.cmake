# Every numeric CLI flag, --remote's host:port and --properties' list of
# catalog ids reject a malformed value and an out-of-range value as a usage
# error: exit 2 and "invalid value for --<flag>" on stderr, before any work
# starts. So do an option the subcommand does not take ("unknown option
# --<flag>"), a value flag with nothing after it ("missing value for
# --<flag>"), a positional argument the subcommand does not read
# ("unexpected argument '<arg>'") and a malformed diff side spec ("bad side
# spec"). A file the command cannot write (conformance --log into a
# missing directory) is a failure, not a usage error: exit 1 and "cannot
# write <path>" on stderr, never a "log written" claim. A learn past its
# deadline is inconclusive: exit 3, naming the deadline. The usage text names
# every option of every subcommand in the option table of main.cc. Run as
#   cmake -DPROCHECKER=<path to prochecker> -DMAIN_SOURCE=<src/cli/main.cc> -P cli_flags_test.cmake

if(NOT PROCHECKER OR NOT MAIN_SOURCE)
  message(FATAL_ERROR "pass -DPROCHECKER=<path to the prochecker binary> -DMAIN_SOURCE=<main.cc>")
endif()

# <subcommand and its required arguments>|<flag>|<bad value>...: each row
# below gives a malformed and an out-of-range value.
set(cases
  "analyze --profile cls|freshness-limit|x|99999999999999999999"
  "analyze --profile cls|max-states|1e3|99999999999999999999|0"
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
  "learn --profile cls|arbitrate|3|2/5|0/0"
  "learn --profile cls|deadline|d|-1"
  "learn --profile cls|retries|r|17"
  "learn --profile cls --remote 127.0.0.1:1|batch|b|65"
  "learn --profile cls --remote 127.0.0.1:1|batch|1.5|0"
  # --batch is checked without --remote too, where it shapes nothing.
  "learn --profile cls|batch|zero|0|65"
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
  # must not wrap to 2^64-1, and NaN fails every range compare. A real
  # takes no sign, whitespace or hex either, even inside its range.
  "analyze --profile cls|max-states|-1|+5"
  "analyze --profile cls|deadline-per-property|nan|inf| 5|+5|0x1p2|-0"
  "chaos --profile cls|intensity| 5|+5|0x1p2| 0.5|+0.5|0x1p-2|-0"
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

# A positional argument no subcommand reads: it must not run the default
# (here every property), nor be dropped beside diff's two flagged sides.
expect_exit(2 "analyze;--profile;cls;S05" "unexpected argument 'S05'")
expect_exit(2 "diff;--left;profile:cls;--right;profile:oai;profile:srsue"
            "unexpected argument 'profile:srsue'")

# A malformed diff side spec, on either side, beside a side that degrades
# (nothing listens on port 1).
expect_exit(2 "diff;nonsense;remote:127.0.0.1:1" "bad side spec 'nonsense'")
expect_exit(2 "diff;remote:127.0.0.1:1;nonsense" "bad side spec 'nonsense'")

# A log file that cannot be written.
set(unwritable "${CMAKE_CURRENT_BINARY_DIR}/no_such_dir/conformance.log")
expect_exit(1 "conformance;--profile;cls;--log;${unwritable}" "cannot write ${unwritable}")

# A learn whose deadline is spent before its first query is inconclusive
# (exit 3) and says so, not that the SUL was unavailable.
expect_exit(3 "learn;--profile;cls;--deadline;0.000001"
            "error: learning inconclusive: attempt deadline (1e-06s) exceeded")

# The usage text (prochecker with no arguments) names every option each
# subcommand takes, in that subcommand's block: its line and the indented
# lines below it. The options come from the subcommand table in main(),
# entries of the form {"name", {handler, {values...}, {switches...}}}.
execute_process(COMMAND "${PROCHECKER}" RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE usage)
if(NOT rc EQUAL 2)
  list(APPEND failures "prochecker with no arguments: exit ${rc}, not 2")
endif()
file(READ "${MAIN_SOURCE}" source)
string(FIND "${source}" "subcommands = {" table_begin)
string(SUBSTRING "${source}" ${table_begin} -1 table)
string(FIND "${table}" "\n  };" table_end)
string(SUBSTRING "${table}" 0 ${table_end} table)
string(REGEX MATCHALL
  "{\"[a-z-]+\",[^{]*{[^{}]*{[^{}]*},[^{}]*{[^{}]*}}}" entries "${table}")
list(LENGTH entries subcommand_count)
if(subcommand_count LESS 8)
  list(APPEND failures "found ${subcommand_count} subcommands in the table of ${MAIN_SOURCE}")
endif()
set(flags_checked 0)
foreach(entry IN LISTS entries)
  string(REGEX MATCHALL "\"[a-z-]+\"" names "${entry}")
  list(POP_FRONT names subcommand)
  string(REPLACE "\"" "" subcommand "${subcommand}")
  # One positional more than the entry's count (after its handler) is a
  # usage error.
  if(NOT entry MATCHES "^{\"[a-z-]+\",[^{]*{[^,{}]*, *([0-9]+),")
    list(APPEND failures "no positional count for ${subcommand} in ${MAIN_SOURCE}")
    continue()
  endif()
  set(positionals ${CMAKE_MATCH_1})
  set(stray_args "${subcommand}")
  set(i 0)
  while(i LESS positionals)
    math(EXPR i "${i} + 1")
    list(APPEND stray_args "arg${i}")
  endwhile()
  expect_exit(2 "${stray_args};stray" "unexpected argument 'stray'")
  string(REGEX MATCH "\n  ${subcommand} [^\n]*(\n   [^\n]*)*" block "${usage}")
  if(block STREQUAL "")
    list(APPEND failures "usage has no line for ${subcommand}")
    continue()
  endif()
  foreach(name IN LISTS names)
    string(REPLACE "\"" "" flag "${name}")
    math(EXPR flags_checked "${flags_checked} + 1")
    if(NOT block MATCHES "--${flag}([^a-z-]|$)")
      list(APPEND failures "usage of ${subcommand} does not name --${flag}")
    endif()
  endforeach()
endforeach()

if(failures)
  list(JOIN failures "\n  " report)
  message(FATAL_ERROR "bad invocations not rejected:\n  ${report}")
endif()
message(STATUS "${runs} bad invocations rejected; usage names all ${flags_checked} options")
