# Runs ffc_repro once into a fresh directory (the reproduction fixture of
# the ctest suite; see the root CMakeLists.txt):
#
#   cmake -DREPRO=path/to/ffc_repro -DJOBS=N -DOUT=dir -P run_repro.cmake
#
# The directory is emptied first, so a failed run leaves no stale
# artifacts behind; a nonzero exit (a failed claim included) fails the step.
file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")
execute_process(COMMAND "${REPRO}" --jobs "${JOBS}" --output-dir "${OUT}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "ffc_repro --jobs ${JOBS} exited with ${status}")
endif()
