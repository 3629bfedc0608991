# The stdout of the examples that tour the crossbar model, the device
# API and the pipelined trainer, and of bench_fig6_timeline (the paper's
# Fig. 3, 6 and 7(a) charts), is byte-identical to the committed
# goldens (goldens/<program>.stdout.txt) at any PL_THREADS and PL_ISA.
# Run as
#   cmake -DEXAMPLES="<path to quickstart>;<crossbar_demo>;..."
#         -DGOLDENS_DIR=<tests/goldens> -DWORK_DIR=<scratch dir>
#         -P check_example_stdout.cmake
file(MAKE_DIRECTORY "${WORK_DIR}")
set(differ "")
foreach(example IN LISTS EXAMPLES)
    get_filename_component(name "${example}" NAME)
    execute_process(COMMAND "${example}"
                    WORKING_DIRECTORY "${WORK_DIR}"
                    OUTPUT_FILE "${WORK_DIR}/${name}.stdout.txt"
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${name} exited ${rc}")
    endif()
    execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                    "${GOLDENS_DIR}/${name}.stdout.txt"
                    "${WORK_DIR}/${name}.stdout.txt"
                    RESULT_VARIABLE diff)
    if(NOT diff EQUAL 0)
        list(APPEND differ "${name}")
    endif()
endforeach()
if(differ)
    list(JOIN differ ", " names)
    message(FATAL_ERROR "stdout differs from ${GOLDENS_DIR}: ${names} "
                        "(see ${WORK_DIR})")
endif()
message(STATUS "example stdout matches the goldens")
