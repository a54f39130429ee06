# The live smoke's gate (scripts/check.sh): the live run's report equals
# the sequential oracle's byte for byte, and the run did work (requests
# served, group hits observed), so an empty-but-equal pair cannot pass.
#   cmake -DLIVE=<live.jsonl> -DORACLE=<oracle.jsonl> -P check_live_report.cmake
foreach(var LIVE ORACLE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is not set")
  endif()
endforeach()

file(READ "${LIVE}" live)
file(READ "${ORACLE}" oracle)
if(NOT live STREQUAL oracle)
  message(FATAL_ERROR "live report diverged from the sequential oracle")
endif()
foreach(key requests_processed group_hits)
  string(JSON ${key} ERROR_VARIABLE err GET "${live}" ${key})
  if(err OR NOT ${key} GREATER 0)
    message(FATAL_ERROR "${LIVE}: ${key} is not > 0 (${${key}})")
  endif()
endforeach()
message(STATUS "live smoke gate OK (report byte-identical to the oracle, "
               "${requests_processed} requests, ${group_hits} group hits)")
