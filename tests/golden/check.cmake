# Golden-stdout check for one figure/table/extension bench.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<expected .out> -DOUT=<actual .out>
#         -DJSON=<perf report path> -P check.cmake
#
# Runs the bench at DPAR_SCALE=64 and fails unless its stdout is
# byte-identical to the golden file. DPAR_JOBS passes through from the
# caller, so one golden file checks every thread count. DPAR_BENCH_FILTER is
# cleared because filtering changes stdout.
set(ENV{DPAR_SCALE} 64)
set(ENV{DPAR_BENCH_JSON} "${JSON}")
unset(ENV{DPAR_BENCH_FILTER})
execute_process(COMMAND "${BENCH}" OUTPUT_FILE "${OUT}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${OUT}"
                RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND "${DIFF}" -u "${GOLDEN}" "${OUT}")
  endif()
  message(FATAL_ERROR "stdout of ${BENCH} differs from ${GOLDEN}")
endif()
