# `vrsim --retries N` and `--cell-mem-mb N` must refuse a value past
# their bound with exit 1 and a diagnostic naming the flag and the
# bound, instead of wrapping it into a small one (2^32+1 retries ran
# as one; 2^44+1 MiB capped RLIMIT_AS at 1 MiB).
# Invoked by ctest as: cmake -DVRSIM=... -P cli_isolation_bounds.cmake

set(run --workload camel --technique ooo --roi 2000 --elems 4096
        --isolation process --format csv)

function(expect_rejected flag value pattern)
    execute_process(COMMAND ${VRSIM} ${run} ${flag} ${value}
        OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
    if(NOT rc EQUAL 1)
        message(FATAL_ERROR
            "${flag} ${value} exited ${rc}, expected 1: ${err}")
    endif()
    if(NOT err MATCHES "${pattern}")
        message(FATAL_ERROR "${flag} ${value}: diagnostic does not name "
            "the flag and its bound: ${err}")
    endif()
endfunction()

expect_rejected(--retries 4294967297 "--retries must be in \\[0, 100\\]")
expect_rejected(--retries 101 "--retries must be in \\[0, 100\\]")
expect_rejected(--cell-mem-mb 17592186044417
    "--cell-mem-mb must be in \\[0, 16777216\\] MiB")

# The bound itself is accepted; this cell does not die, so no retry
# sleeps.
execute_process(COMMAND ${VRSIM} ${run} --retries 100
    OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "--retries 100 exited ${rc}, expected 0: ${err}")
endif()
