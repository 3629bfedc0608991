# Integer fields of outside JSON input are exact (no rounding or
# wrapping): pl_serve must reject an NDJSON request whose
# arrival_cycle is fractional or beyond int64, and json_lint must
# report such a field as a lint error instead of terminating.  Run as
#   cmake -DPL_SERVE=<pl_serve> -DJSON_LINT=<json_lint>
#         -DWORK_DIR=<scratch dir> -P check_integer_fields.cmake
file(MAKE_DIRECTORY "${WORK_DIR}")
foreach(cycle 2.7 1e300)
    file(WRITE "${WORK_DIR}/request.ndjson"
         "{\"id\": 0, \"arrival_cycle\": ${cycle}}\n")
    execute_process(COMMAND "${PL_SERVE}" --network=Mnist-A --quiet
                    INPUT_FILE "${WORK_DIR}/request.ndjson"
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 1 OR
       NOT err MATCHES "'arrival_cycle' must be an integer")
        message(FATAL_ERROR
                "pl_serve on arrival_cycle ${cycle}: exit ${rc}: ${err}")
    endif()
endforeach()

file(WRITE "${WORK_DIR}/completions.ndjson"
     "{\"id\": 0, \"arrival_cycle\": 2.5, \"admitted\": true, "
     "\"entry_cycle\": 3, \"completion_cycle\": 9, "
     "\"latency_cycles\": 7, \"batch_id\": 0, \"batch_size\": 1}\n")
execute_process(COMMAND "${JSON_LINT}" "${WORK_DIR}/completions.ndjson"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "must be an integer")
    message(FATAL_ERROR "json_lint on arrival_cycle 2.5: exit ${rc}: ${err}")
endif()
message(STATUS "fractional and out-of-range integer fields rejected")
