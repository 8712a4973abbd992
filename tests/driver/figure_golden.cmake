# Runs `vrsim --figure FIGURE` at the smoke scale and compares its
# stdout byte for byte with GOLDEN_DIR/FIGURE.txt. With
# VRSIM_REGEN_GOLDEN set (and not 0) it rewrites the fixture instead.
# Invoked by ctest as: cmake -DVRSIM=... -DFIGURE=... -DGOLDEN_DIR=...
#                      -DOUT_DIR=... -P figure_golden.cmake
execute_process(
    COMMAND ${VRSIM} --figure ${FIGURE} --nodes 2048 --degree 8
            --elems 4096 --roi 6000 --warmup 1000
    OUTPUT_FILE ${OUT_DIR}/${FIGURE}.txt
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "vrsim --figure ${FIGURE} exited ${rc}")
endif()
set(golden ${GOLDEN_DIR}/${FIGURE}.txt)
if(NOT "$ENV{VRSIM_REGEN_GOLDEN}" STREQUAL "" AND
   NOT "$ENV{VRSIM_REGEN_GOLDEN}" STREQUAL "0")
    execute_process(COMMAND ${CMAKE_COMMAND} -E copy
                            ${OUT_DIR}/${FIGURE}.txt ${golden})
    return()
endif()
if(NOT EXISTS ${golden})
    message(FATAL_ERROR "missing golden file ${golden} "
                        "(regenerate with VRSIM_REGEN_GOLDEN=1)")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${golden}
            ${OUT_DIR}/${FIGURE}.txt
    RESULT_VARIABLE differ)
if(differ)
    message(FATAL_ERROR "${FIGURE} changed: diff ${golden} "
                        "${OUT_DIR}/${FIGURE}.txt")
endif()
