# Full `prochecker analyze --traces` reports, pinned byte for byte against
# committed fixtures at --jobs 1 and --jobs 4: every profile at the default
# budgets, and cls at --max-states 50000, whose graph build truncates (its
# inconclusive notes say how far each refined search got inside it). Run as
#   cmake -DPROCHECKER=<path to prochecker> -DGOLDEN_DIR=<tests/golden> -P golden_reports_test.cmake

if(NOT PROCHECKER OR NOT GOLDEN_DIR)
  message(FATAL_ERROR "pass -DPROCHECKER=<prochecker binary> -DGOLDEN_DIR=<fixture directory>")
endif()

# <fixture>|<analyze arguments>
set(cases
  "analyze_cls|--profile cls"
  "analyze_srsue|--profile srsue"
  "analyze_oai|--profile oai"
  "analyze_cls_50000|--profile cls --max-states 50000"
)

set(failures "")
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 fixture)
  list(GET parts 1 args)
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
    if(NOT actual STREQUAL expected)
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
