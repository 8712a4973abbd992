# `vrsim` must refuse a scale no workload can be built at with exit 1
# and a diagnostic naming the key and its bound, before any graph is
# built: from a flag, from a replayed repro bundle, and on --resume.
# Invoked by ctest as:
#   cmake -DVRSIM=... -DOUT_DIR=... -P cli_bad_scale.cmake

function(expect_fatal what pattern)
    execute_process(COMMAND ${ARGN}
        OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
    if(NOT rc EQUAL 1)
        message(FATAL_ERROR "${what} exited ${rc}, expected 1: ${err}")
    endif()
    if(NOT err MATCHES "${pattern}")
        message(FATAL_ERROR
            "${what}: diagnostic does not name the key and bound: ${err}")
    endif()
endfunction()

set(run --technique ooo --roi 1000 --format csv)
set(nodes_bound "gscale\\.nodes \\(--nodes\\) must be in \\[1, 4294967296\\]")
set(elems_bound "hscale\\.elements \\(--elems\\) must be in \\[2, 4294967296\\]")
set(rmat_bound "gscale\\.nodes \\(--nodes\\) 3000 does not fit the KR input: its RMAT graph needs a power-of-two node count")

expect_fatal("bfs/UR --nodes 0" "${nodes_bound}"
    ${VRSIM} --workload bfs/UR --nodes 0 ${run})
expect_fatal("hj2 --elems 0" "${elems_bound}"
    ${VRSIM} --workload hj2 --elems 0 ${run})
expect_fatal("nas-is --elems 1" "${elems_bound}"
    ${VRSIM} --workload nas-is --elems 1 ${run})
expect_fatal("bfs/KR --nodes 3000" "${rmat_bound}"
    ${VRSIM} --workload bfs/KR --nodes 3000 ${run})

# A repro bundle carries the scale: record one at a valid scale, zero
# its node count and drop its injected fault, then replay it.
set(dir ${OUT_DIR}/cli_bad_scale)
file(REMOVE_RECURSE ${dir})
file(MAKE_DIRECTORY ${dir})
execute_process(
    COMMAND ${VRSIM} --workload bfs/UR --nodes 64 --degree 4 ${run}
            --inject-fail ooo:fatal --repro-dir ${dir}
    OUTPUT_QUIET ERROR_QUIET)
file(READ ${dir}/bfs_UR_OoO.json bundle)
string(REPLACE "\"nodes\":64," "\"nodes\":0," bundle "${bundle}")
string(REPLACE "\"inject_fail\":true,\"inject_kind\":\"fatal\""
               "\"inject_fail\":false" bundle "${bundle}")
file(WRITE ${dir}/zero_nodes.json "${bundle}")
expect_fatal("--replay of a bundle with gscale.nodes 0" "${nodes_bound}"
    ${VRSIM} --replay ${dir}/zero_nodes.json)

# --resume of a journal with no completed cell runs every point.
set(sweep ${VRSIM} --workload bfs/UR --nodes 0 --all-techniques
          --roi 1000 --format csv --checkpoint ${dir}/sweep.checkpoint)
expect_fatal("--checkpoint at --nodes 0" "${nodes_bound}" ${sweep})
file(STRINGS ${dir}/sweep.checkpoint journal)
list(GET journal 0 header)
file(WRITE ${dir}/sweep.checkpoint "${header}\n")
expect_fatal("--resume at --nodes 0" "${nodes_bound}" ${sweep} --resume)
