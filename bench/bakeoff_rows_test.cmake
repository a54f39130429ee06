# Checks that `bakeoff --smoke --scheme=X` prints exactly row X of the full
# smoke table: every model field of every entry must match (the formation
# wall time is a timing and may differ). Run by ctest:
#   cmake -DBAKEOFF=<path to bakeoff> -DWORK_DIR=<scratch dir> -P bakeoff_rows_test.cmake
foreach(var BAKEOFF WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is not set")
  endif()
endforeach()
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_bakeoff out_json)
  execute_process(
    COMMAND "${BAKEOFF}" --smoke "--json-out=${out_json}" ${ARGN}
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bakeoff ${ARGN} exited with ${rc}")
  endif()
endfunction()

run_bakeoff("${WORK_DIR}/full.json")
file(READ "${WORK_DIR}/full.json" full)
string(JSON full_count LENGTH "${full}" entries)
string(JSON scheme_count LENGTH "${full}" schemes)
math(EXPR last_scheme "${scheme_count} - 1")
math(EXPR last_full "${full_count} - 1")

set(fields formation_probes gicost_ms max_group min_group partition_valid
           quiet churn)
foreach(s RANGE ${last_scheme})
  string(JSON scheme GET "${full}" schemes ${s})
  run_bakeoff("${WORK_DIR}/${scheme}.json" "--scheme=${scheme}")
  file(READ "${WORK_DIR}/${scheme}.json" one)
  string(JSON one_count LENGTH "${one}" entries)
  math(EXPR last_one "${one_count} - 1")
  set(matched 0)
  foreach(i RANGE ${last_one})
    string(JSON n GET "${one}" entries ${i} n)
    foreach(j RANGE ${last_full})
      string(JSON fn GET "${full}" entries ${j} n)
      string(JSON fs GET "${full}" entries ${j} scheme)
      if(NOT (fn EQUAL n AND fs STREQUAL scheme))
        continue()
      endif()
      foreach(field ${fields})
        string(JSON a GET "${one}" entries ${i} ${field})
        string(JSON b GET "${full}" entries ${j} ${field})
        if(NOT a STREQUAL b)
          message(FATAL_ERROR "--scheme=${scheme} n=${n}: ${field} is ${a}, "
                              "the full table has ${b}")
        endif()
      endforeach()
      math(EXPR matched "${matched} + 1")
    endforeach()
  endforeach()
  if(NOT matched EQUAL one_count)
    message(FATAL_ERROR "--scheme=${scheme}: ${matched} of ${one_count} "
                        "rows found in the full table")
  endif()
endforeach()
message(STATUS "${scheme_count} filtered tables match the full table")
