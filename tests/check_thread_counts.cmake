# Thread counts are exact or rejected: PL_THREADS and --threads must
# be an integer in [1, 256], and anything else exits 1 with a message
# naming the input and the cap (no saturation, clamping or silent
# fallback).  Run as
#   cmake -DBENCH=<bench_table2_formulas>
#         -DDESIGN_EXPLORER=<design_explorer>
#         -DWORK_DIR=<scratch dir> -P check_thread_counts.cmake
file(MAKE_DIRECTORY "${WORK_DIR}")

function(expect_rejected label input)
    execute_process(COMMAND ${ARGN}
                    WORKING_DIRECTORY "${WORK_DIR}"
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 1 OR
       NOT err MATCHES "${input} must be an integer in \\[1, 256\\]")
        message(FATAL_ERROR "${label}: exit ${rc}: ${err}")
    endif()
endfunction()

foreach(value 99999999999999999999 300 0 abc)
    expect_rejected("PL_THREADS=${value}" "PL_THREADS"
        ${CMAKE_COMMAND} -E env PL_THREADS=${value} "${BENCH}")
endforeach()
expect_rejected("bench --threads=-3" "--threads" "${BENCH}" --threads=-3)
expect_rejected("bench --threads=257" "--threads" "${BENCH}"
                --threads=257)
expect_rejected("design_explorer --threads=0" "--threads"
                "${DESIGN_EXPLORER}" --threads=0)
message(STATUS "out-of-range and malformed thread counts rejected")
