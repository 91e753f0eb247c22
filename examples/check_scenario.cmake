# Runs run_scenario with a non-default scheduler and CSV export, and fails
# unless it exits 0 and writes PREFIX.{throughput,seek,trace}.csv.
#
#   cmake -DEXE=<run_scenario> -DPREFIX=<path prefix> -P check_scenario.cmake
set(kinds throughput seek trace)
foreach(kind ${kinds})
  file(REMOVE ${PREFIX}.${kind}.csv)
endforeach()
execute_process(COMMAND ${EXE} --sched deadline --csv ${PREFIX}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "run_scenario exited with ${rc}")
endif()
foreach(kind ${kinds})
  if(NOT EXISTS ${PREFIX}.${kind}.csv)
    message(FATAL_ERROR "run_scenario did not write ${PREFIX}.${kind}.csv")
  endif()
endforeach()
