# Full `prochecker analyze --traces` reports, pinned against committed
# fixtures at --jobs 1 and --jobs 4. Default-budget reports must match byte
# for byte. The --max-states 50000 report truncates, and the "after N
# states" figure in its inconclusive notes depends on how far a refined
# search got before the bound, so it is compared on the first three fields
# of every line (id, status, Table I row; for trace lines the step and its
# label). Run as
#   cmake -DPROCHECKER=<path to prochecker> -DGOLDEN_DIR=<tests/golden> -P golden_reports_test.cmake

if(NOT PROCHECKER OR NOT GOLDEN_DIR)
  message(FATAL_ERROR "pass -DPROCHECKER=<prochecker binary> -DGOLDEN_DIR=<fixture directory>")
endif()

# <fixture>|<analyze arguments>|<exact or fields>
set(cases
  "analyze_cls|--profile cls|exact"
  "analyze_srsue|--profile srsue|exact"
  "analyze_oai|--profile oai|exact"
  "analyze_cls_50000|--profile cls --max-states 50000|fields"
)

# The first three whitespace-separated fields of every line of `text`.
# (Regexes over the whole text: CMake lists would mangle the brackets and
# semicolons that trace lines carry.)
function(leading_fields text out)
  string(REGEX REPLACE "[ \t]+" " " text "${text}")
  string(REGEX REPLACE "(^|\n) " "\\1" text "${text}")
  string(REGEX REPLACE "([^ \n]+ [^ \n]+ [^ \n]+) [^\n]*" "\\1" text "${text}")
  set(${out} "${text}" PARENT_SCOPE)
endfunction()

set(failures "")
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 fixture)
  list(GET parts 1 args)
  list(GET parts 2 mode)
  separate_arguments(args UNIX_COMMAND "${args}")
  file(READ "${GOLDEN_DIR}/${fixture}.txt" expected)
  foreach(jobs 1 4)
    execute_process(
      COMMAND "${PROCHECKER}" analyze ${args} --traces --jobs ${jobs}
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE actual
      ERROR_VARIABLE err
      TIMEOUT 600)
    set(label "${fixture} at --jobs ${jobs}")
    if(NOT rc EQUAL 0)
      list(APPEND failures "${label}: exit ${rc}, stderr '${err}'")
      continue()
    endif()
    if(mode STREQUAL "fields")
      leading_fields("${expected}" want)
      leading_fields("${actual}" got)
    else()
      set(want "${expected}")
      set(got "${actual}")
    endif()
    if(NOT got STREQUAL want)
      get_filename_component(dump "${fixture}.jobs${jobs}.actual.txt" ABSOLUTE)
      file(WRITE "${dump}" "${actual}")
      list(APPEND failures "${label}: report differs from ${fixture}.txt (actual output in ${dump})")
    endif()
  endforeach()
endforeach()

if(failures)
  list(JOIN failures "\n  " report)
  message(FATAL_ERROR "analyze reports differ from the golden fixtures:\n  ${report}")
endif()
message(STATUS "golden analyze reports match at --jobs 1 and --jobs 4")
