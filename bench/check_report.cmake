# The one gate over a bench's JSON report (bench/report.h): the report
# parses, its schema is a string literal in the bench's source, its mode is
# full, smoke or skipped, a skipped report gives a reason, and any other
# report carries shape checks that all pass.
#   cmake -DREPORT=<json> -DSOURCE=<bench source> -P check_report.cmake
# With -DBENCH=<executable> -DARGS="<space-separated args>" the bench runs
# first (its ARGS must write REPORT) and a nonzero exit fails the gate.
foreach(var REPORT SOURCE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is not set")
  endif()
endforeach()

if(DEFINED BENCH)
  file(REMOVE "${REPORT}")  # a stale report must not stand in for this run
  separate_arguments(args UNIX_COMMAND "${ARGS}")
  execute_process(COMMAND "${BENCH}" ${args} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} ${ARGS} exited with ${rc}")
  endif()
endif()

file(READ "${REPORT}" json)
string(JSON schema_type ERROR_VARIABLE err TYPE "${json}" schema)
if(err OR NOT schema_type STREQUAL "STRING")
  message(FATAL_ERROR "${REPORT}: no string schema (${err})")
endif()
string(JSON schema GET "${json}" schema)
file(READ "${SOURCE}" source)
string(FIND "${source}" "\"${schema}\"" at)
if(at EQUAL -1)
  message(FATAL_ERROR
    "${REPORT}: schema ${schema} is not a literal in ${SOURCE}")
endif()

string(JSON mode ERROR_VARIABLE err GET "${json}" mode)
if(err OR NOT mode MATCHES "^(full|smoke|skipped)$")
  message(FATAL_ERROR "${REPORT}: mode '${mode}' is not full, smoke or skipped")
endif()

if(mode STREQUAL "skipped")
  string(JSON reason ERROR_VARIABLE err GET "${json}" reason)
  if(err OR reason STREQUAL "")
    message(FATAL_ERROR "${REPORT}: a skipped report must give a reason")
  endif()
  message(STATUS "${schema} report OK (skipped: ${reason})")
  return()
endif()

string(JSON count ERROR_VARIABLE err LENGTH "${json}" shape_checks)
if(err OR count EQUAL 0)
  message(FATAL_ERROR "${REPORT}: a ${mode} report must carry shape checks")
endif()
math(EXPR last "${count} - 1")
set(failed "")
foreach(i RANGE ${last})
  string(JSON claim GET "${json}" shape_checks ${i} claim)
  string(JSON pass_type TYPE "${json}" shape_checks ${i} pass)
  string(JSON pass GET "${json}" shape_checks ${i} pass)
  if(NOT pass_type STREQUAL "BOOLEAN" OR NOT pass)
    string(APPEND failed "\n  FAIL — ${claim}")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "${REPORT}: failing shape checks:${failed}")
endif()
message(STATUS "${schema} report OK (${count} shape checks pass)")
