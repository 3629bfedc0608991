# pl_serve's four artifacts on the committed canned arrival trace are
# byte-identical to the SHA-256 digests that goldens/README.md lists
# ("pl_serve artifact digests"), for Mnist-A and VGG-A.  Together they
# cover every layout of the JSON writer: compact (the completion
# records and the metrics stream), indent 1 (the Chrome trace) and
# indent 2 (the summary).  pl_serve runs on the scalar kernels, since
# the metrics trailer records serving.host.isa_level, and with the
# profiler off, since PL_PROFILE=1 adds wall clocks to the summary.
# Run as
#   cmake -DPL_SERVE=<path to pl_serve> -DARRIVALS=<arrival trace>
#         -DREADME=<tests/goldens/README.md> -DWORK_DIR=<scratch dir>
#         -P check_serve_artifacts.cmake
file(MAKE_DIRECTORY "${WORK_DIR}")
file(READ "${README}" readme)
set(differ "")
foreach(network Mnist-A VGG-A)
    set(out "${WORK_DIR}/${network}")
    execute_process(COMMAND "${CMAKE_COMMAND}" -E env
                            --unset=PL_PROFILE PL_ISA=scalar
                            "${PL_SERVE}" "--network=${network}"
                            "--arrivals=${ARRIVALS}"
                            "--completions=${out}.completions.ndjson"
                            "--json=${out}.summary.json"
                            "--trace=${out}.trace.json"
                            "--metrics=${out}.metrics.ndjson"
                            --metrics-interval=64 --quiet
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "pl_serve --network=${network} exited ${rc}")
    endif()
    foreach(artifact completions.ndjson summary.json trace.json
                     metrics.ndjson)
        string(REGEX MATCH "\\| ${network} \\| ${artifact} \\| ([0-9a-f]+) \\|"
               row "${readme}")
        if(NOT row)
            message(FATAL_ERROR "${README} lists no digest for "
                                "${network} ${artifact}")
        endif()
        set(want "${CMAKE_MATCH_1}")
        file(SHA256 "${out}.${artifact}" got)
        if(NOT got STREQUAL want)
            list(APPEND differ "${network}.${artifact} (${got})")
        endif()
    endforeach()
endforeach()
if(differ)
    list(JOIN differ ", " names)
    message(FATAL_ERROR "pl_serve output differs from the digests in "
                        "${README}: ${names} (see ${WORK_DIR})")
endif()
message(STATUS "pl_serve artifacts match their digests")
