# Runs one command-line binary and checks how it ended:
#
#   cmake -DCLI=<binary> -DARGS="<k=v k=v ...>" -DSTATUS=<exit status>
#         [-DEXPECT=<text>] [-DJSONL=<path>[,<path>...]
#         -DJSONL_EXPECT=<text> [-DJSONL_RECORDS=<n>]] -P run_cli.cmake
#
# The exit status must equal STATUS, the combined stdout+stderr must
# contain EXPECT (a literal substring) and must not contain
# "terminate called" (an uncaught exception). With JSONL, each file
# must hold at least one record (exactly JSONL_RECORDS when given)
# and every record must contain JSONL_EXPECT.

separate_arguments(args UNIX_COMMAND "${ARGS}")
if(DEFINED JSONL)
    string(REPLACE "," ";" jsonl_files "${JSONL}")
    file(REMOVE ${jsonl_files})
endif()
execute_process(COMMAND "${CLI}" ${args}
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
set(output "${out}${err}")

if(NOT status STREQUAL STATUS)
    message(FATAL_ERROR
        "${CLI} ${ARGS}: exit status ${status}, want ${STATUS}\n${output}")
endif()
string(FIND "${output}" "terminate called" at)
if(NOT at EQUAL -1)
    message(FATAL_ERROR "${CLI} ${ARGS}: uncaught exception\n${output}")
endif()
if(DEFINED EXPECT)
    string(FIND "${output}" "${EXPECT}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR
            "${CLI} ${ARGS}: output lacks '${EXPECT}'\n${output}")
    endif()
endif()
foreach(jsonl IN LISTS jsonl_files)
    file(STRINGS "${jsonl}" records)
    if(NOT records)
        message(FATAL_ERROR "${CLI} ${ARGS}: no records in ${jsonl}")
    endif()
    list(LENGTH records count)
    if(DEFINED JSONL_RECORDS AND NOT count EQUAL JSONL_RECORDS)
        message(FATAL_ERROR
            "${jsonl}: ${count} records, want ${JSONL_RECORDS}")
    endif()
    foreach(record IN LISTS records)
        string(FIND "${record}" "${JSONL_EXPECT}" at)
        if(at EQUAL -1)
            message(FATAL_ERROR
                "${jsonl}: a record lacks '${JSONL_EXPECT}'\n${record}")
        endif()
    endforeach()
endforeach()
