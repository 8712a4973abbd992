# `vrsim --cell-timeout S` must refuse every S it cannot honour as a
# deadline: negative, NaN, infinite and too large values each exit 1
# with a diagnostic that names the flag and the bound, before any
# cell runs.
# Invoked by ctest as: cmake -DVRSIM=... -P cli_cell_timeout.cmake
foreach(seconds -1 nan inf 1e300)
    execute_process(
        COMMAND ${VRSIM} --workload camel --technique ooo --roi 2000
                --elems 4096 --isolation process --cell-timeout ${seconds}
        OUTPUT_QUIET
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 1)
        message(FATAL_ERROR
            "--cell-timeout ${seconds} exited ${rc}, expected 1: ${err}")
    endif()
    if(NOT err MATCHES "--cell-timeout must be .* in \\[0, 1000000\\]")
        message(FATAL_ERROR
            "--cell-timeout ${seconds}: diagnostic does not name the "
            "flag and its bound: ${err}")
    endif()
endforeach()
