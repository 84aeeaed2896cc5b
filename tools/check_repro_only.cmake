# Pins `ffc_repro --only` end to end: a list runs its experiments in the
# order given, its stdout is exactly that of one run per id, and it writes
# no artifact into its working directory:
#
#   cmake -DREPRO=path/to/ffc_repro -DOUT=dir -P check_repro_only.cmake
#
# The ids are cheap ones, so the step stays off the suite's critical path.
file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")

function(run_only ids var)
  execute_process(COMMAND "${REPRO}" --only "${ids}"
                  WORKING_DIRECTORY "${OUT}"
                  OUTPUT_VARIABLE out RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "ffc_repro --only ${ids} exited with ${status}")
  endif()
  if(out STREQUAL "")
    message(FATAL_ERROR "ffc_repro --only ${ids} printed nothing")
  endif()
  set(${var} "${out}" PARENT_SCOPE)
endfunction()

run_only("TAB1,E1" both)
run_only(TAB1 first)
run_only(E1 second)
if(NOT both STREQUAL "${first}${second}")
  message(FATAL_ERROR
          "ffc_repro --only TAB1,E1 differs from --only TAB1 then --only E1")
endif()
foreach(artifact IN ITEMS REPRODUCTION.md claims.json)
  if(EXISTS "${OUT}/${artifact}")
    message(FATAL_ERROR "ffc_repro --only wrote ${artifact}")
  endif()
endforeach()
