# Integer fields of outside JSON input are exact (no rounding or
# wrapping): pl_serve must reject an NDJSON request whose
# arrival_cycle is fractional or beyond int64 and echo one beyond 2^53
# digit for digit, must reject an arrival cycle or a --max-wait past
# the 2^60 cycle bound, an arrival trace that asks for too many
# requests or drives a cycle past that bound, and a metrics stream of
# more than 100000 windows, and json_lint must report
# such a field as a lint error instead of terminating.  json_lint
# also rejects every job and trace the simulator's parsers reject.
# A repeated object key is an error in both tools, and so is a request
# line cut short, whether a newline or the end of the stream ends it,
# or a number past the double range.
# json_lint also checks the committed perf trajectory's records.
# Run as
#   cmake -DPL_SERVE=<pl_serve> -DJSON_LINT=<json_lint>
#         -DTRAJECTORY=<bench/trajectory.ndjson>
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

file(WRITE "${WORK_DIR}/request.ndjson"
     "{\"id\": 0, \"arrival_cycle\": 9007199254740993}\n")
execute_process(COMMAND "${PL_SERVE}" --network=Mnist-A --quiet
                INPUT_FILE "${WORK_DIR}/request.ndjson"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR
   NOT out MATCHES "\"arrival_cycle\":9007199254740993,")
    message(FATAL_ERROR
            "pl_serve on arrival_cycle 2^53 + 1: exit ${rc}: ${out}${err}")
endif()

# Cycles past the 2^60 bound are rejected naming the field: an
# arrival at int64's top, and int64's top as the wait after an
# arrival at cycle 5.
foreach(entry
        "arrival_cycle@9223372036854775807@32"
        "max_wait_cycles@5@9223372036854775807")
    string(REPLACE "@" ";" parts "${entry}")
    list(GET parts 0 field)
    list(GET parts 1 cycle)
    list(GET parts 2 wait)
    file(WRITE "${WORK_DIR}/request.ndjson"
         "{\"id\": 0, \"arrival_cycle\": ${cycle}}\n")
    execute_process(COMMAND "${PL_SERVE}" --network=Mnist-A --quiet
                    "--max-wait=${wait}"
                    INPUT_FILE "${WORK_DIR}/request.ndjson"
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 1 OR NOT err MATCHES "${field}")
        message(FATAL_ERROR "pl_serve past the cycle bound (${field}): "
                            "exit ${rc}: ${err}")
    endif()
endforeach()

# The metrics stream holds at most 100000 windows: a request at cycle
# 640000 with 64-cycle windows writes 10001 and the trailer, one at
# cycle 6400000 would need 100001 and is refused naming the flag.
foreach(entry "640000@0" "6400000@1")
    string(REPLACE "@" ";" parts "${entry}")
    list(GET parts 0 cycle)
    list(GET parts 1 want_rc)
    file(WRITE "${WORK_DIR}/request.ndjson"
         "{\"id\": 0, \"arrival_cycle\": ${cycle}}\n")
    file(REMOVE "${WORK_DIR}/metrics.ndjson")
    execute_process(COMMAND "${PL_SERVE}" --network=Mnist-A --quiet
                    "--metrics=${WORK_DIR}/metrics.ndjson"
                    --metrics-interval=64
                    INPUT_FILE "${WORK_DIR}/request.ndjson"
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL want_rc)
        message(FATAL_ERROR "pl_serve --metrics-interval=64 on a request "
                            "at cycle ${cycle}: exit ${rc}: ${err}")
    endif()
    if(want_rc EQUAL 0)
        file(STRINGS "${WORK_DIR}/metrics.ndjson" records)
        list(LENGTH records count)
        if(NOT count EQUAL 10002)
            message(FATAL_ERROR "pl_serve wrote ${count} metrics records "
                                "for a request at cycle ${cycle}")
        endif()
    elseif(NOT err MATCHES "--metrics-interval=64: .*100000-window bound")
        message(FATAL_ERROR "pl_serve past the window bound: ${err}")
    endif()
endforeach()

# Each trace names the field that is out of bounds.
set(traces
    "num_requests@\"kind\": \"fixed\", \"num_requests\": 1e15, \"interval\": 1"
    "interval@\"kind\": \"fixed\", \"num_requests\": 3, \"interval\": 4611686018427387904"
    "rate_per_cycle@\"kind\": \"poisson\", \"num_requests\": 4, \"rate_per_cycle\": 1e-300, \"seed\": 1")
foreach(entry ${traces})
    string(REPLACE "@" ";" parts "${entry}")
    list(GET parts 0 field)
    list(GET parts 1 body)
    file(WRITE "${WORK_DIR}/trace.json"
         "{\"arrival_trace_version\": 1, ${body}}\n")
    execute_process(COMMAND "${PL_SERVE}" --network=Mnist-A --quiet
                    "--arrivals=${WORK_DIR}/trace.json"
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 1 OR NOT err MATCHES "'${field}'")
        message(FATAL_ERROR "pl_serve on a trace with a bad ${field}: "
                            "exit ${rc}: ${err}")
    endif()
endforeach()

# json_lint reads jobs and traces with the simulator's parsers: B must
# divide N in training, and a Poisson trace needs its rate and seed.
file(WRITE "${WORK_DIR}/job.json"
     "{\"job_version\": 1, \"phase\": \"training\", "
     "\"batch_size\": 3, \"num_images\": 10}\n")
file(WRITE "${WORK_DIR}/poisson.json"
     "{\"arrival_trace_version\": 1, \"kind\": \"poisson\", "
     "\"num_requests\": 4}\n")
foreach(doc job poisson)
    execute_process(COMMAND "${JSON_LINT}" "${WORK_DIR}/${doc}.json"
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 1 OR NOT err MATCHES "${doc}.json: ")
        message(FATAL_ERROR "json_lint on the bad ${doc}: exit ${rc}: ${err}")
    endif()
endforeach()
# A repeated key is an error naming it, not a silent last-one-wins:
# in an NDJSON request and in a document json_lint reads.
file(WRITE "${WORK_DIR}/request.ndjson"
     "{\"id\":0,\"arrival_cycle\":5,\"arrival_cycle\":7}\n")
execute_process(COMMAND "${PL_SERVE}" --network=Mnist-A --quiet
                INPUT_FILE "${WORK_DIR}/request.ndjson"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "repeated key 'arrival_cycle'")
    message(FATAL_ERROR "pl_serve on a repeated key: exit ${rc}: ${err}")
endif()
file(WRITE "${WORK_DIR}/repeated.json"
     "{\"arrival_trace_version\": 1, \"kind\": \"fixed\", "
     "\"num_requests\": 3, \"interval\": 2, \"interval\": 4}\n")
execute_process(COMMAND "${JSON_LINT}" "${WORK_DIR}/repeated.json"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "repeated key 'interval'")
    message(FATAL_ERROR "json_lint on a repeated key: exit ${rc}: ${err}")
endif()
# A number past the double range is a parse error on its line, not an
# abort while the field's error message is formatted.
file(WRITE "${WORK_DIR}/request.ndjson"
     "{\"id\":0,\"arrival_cycle\":1e999}\n")
execute_process(COMMAND "${PL_SERVE}" --network=Mnist-A --quiet
                INPUT_FILE "${WORK_DIR}/request.ndjson"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR
   NOT err MATCHES "stdin line 1: number out of range at offset 24")
    message(FATAL_ERROR "pl_serve on arrival_cycle 1e999: exit ${rc}: "
                        "${err}")
endif()
# Every proper prefix of a request is a parse error on its line, as a
# line of its own and as the last bytes of the stream.
set(request "{\"id\":0,\"arrival_cycle\":5}")
string(LENGTH "${request}" request_length)
math(EXPR last "${request_length} - 1")
foreach(length RANGE 1 ${last})
    string(SUBSTRING "${request}" 0 ${length} prefix)
    foreach(ending "\n" "")
        file(WRITE "${WORK_DIR}/request.ndjson" "${prefix}${ending}")
        execute_process(COMMAND "${PL_SERVE}" --network=Mnist-A --quiet
                        INPUT_FILE "${WORK_DIR}/request.ndjson"
                        RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
        if(NOT rc EQUAL 1 OR NOT err MATCHES "stdin line 1")
            message(FATAL_ERROR "pl_serve on the truncated request "
                                "'${prefix}': exit ${rc}: ${err}")
        endif()
    endforeach()
endforeach()

# The committed perf trajectory lints; a record with a fractional
# pair count, one without a host, and one whose median is a string do
# not.
execute_process(COMMAND "${JSON_LINT}" "${TRAJECTORY}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "OK \\(perf trajectory")
    message(FATAL_ERROR "json_lint on ${TRAJECTORY}: exit ${rc}: ${err}")
endif()
string(CONCAT record "\"trajectory_version\": 1, \"base\": \"a\", \"head\": \"b\", "
       "\"workload\": \"w\", \"metric\": \"m\", \"unit\": \"s\", "
       "\"seconds\": 8, \"seed\": 1")
foreach(entry
        "pairs 2.5@\"base_median\": 1, \"head_median\": 2, \"pairs\": 2.5, \"host\": \"h\"@must be an integer"
        "no host@\"base_median\": 1, \"head_median\": 2, \"pairs\": 3@non-empty string 'host'"
        "string median@\"base_median\": \"1\", \"head_median\": 2, \"pairs\": 3, \"host\": \"h\"@finite number 'base_median'")
    string(REPLACE "@" ";" parts "${entry}")
    list(GET parts 0 what)
    list(GET parts 1 rest)
    list(GET parts 2 want)
    file(WRITE "${WORK_DIR}/trajectory.ndjson" "{${record}, ${rest}}\n")
    execute_process(COMMAND "${JSON_LINT}" "${WORK_DIR}/trajectory.ndjson"
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 1 OR NOT err MATCHES "${want}")
        message(FATAL_ERROR "json_lint on a trajectory record with "
                            "${what}: exit ${rc}: ${err}")
    endif()
endforeach()
message(STATUS "fractional, out-of-range and overflowing integer fields, "
               "repeated keys, truncated requests and malformed "
               "trajectory records rejected; exact integers echoed")
