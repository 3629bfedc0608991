# Device-parameter files are exact or rejected: design_explorer
# --device=FILE exits 1 with a message naming the offending key (or
# the unreadable file) instead of truncating, wrapping, aborting or
# dying on SIGFPE, and a valid file is accepted.  Run as
#   cmake -DDESIGN_EXPLORER=<design_explorer>
#         -DWORK_DIR=<scratch dir> -P check_device_params.cmake
file(MAKE_DIRECTORY "${WORK_DIR}")

function(expect_rejected text needle)
    file(WRITE "${WORK_DIR}/bad.cfg" "${text}\n")
    execute_process(COMMAND "${DESIGN_EXPLORER}" Mnist-A
                            --device=${WORK_DIR}/bad.cfg
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 1 OR NOT err MATCHES "${needle}")
        message(FATAL_ERROR "'${text}': exit ${rc}: ${err}")
    endif()
endfunction()

expect_rejected("cell_bits = 0" "cell_bits must be an integer in \\[1, 8\\]")
expect_rejected("array_rows = 2.7" "array_rows = '2.7' is not an integer")
expect_rejected("array_rows = -5" "array_rows must be")
expect_rejected("counter_bits = 70" "counter_bits must be")
expect_rejected("data_bits = 64" "data_bits must be")
expect_rejected("stuck_at_fault_rate = 2" "stuck_at_fault_rate must be")
expect_rejected("variation_seed = -1" "variation_seed = '-1' is not")
expect_rejected("array_rows 128" "expected 'key = value'")

execute_process(COMMAND "${DESIGN_EXPLORER}" Mnist-A
                        --device=${WORK_DIR}/no_such.cfg
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "cannot open device params file")
    message(FATAL_ERROR "missing file: exit ${rc}: ${err}")
endif()

file(WRITE "${WORK_DIR}/good.cfg" "array_rows = 256\ncell_bits = 8\n")
execute_process(COMMAND "${DESIGN_EXPLORER}" Mnist-A
                        --device=${WORK_DIR}/good.cfg
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "valid file rejected: exit ${rc}: ${err}")
endif()
message(STATUS "malformed and out-of-range device parameters rejected")
