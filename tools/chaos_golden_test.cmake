# Fault-path golden test: a run of scenarios/chaos.toml (server
# crashes, controller crashes, sensor faults) must reproduce the
# committed result, metrics and violations CSVs byte for byte, so a
# change to routing or recovery that alters fault-run outputs fails
# here and not only in a rerun-vs-rerun comparison.  The run violates
# its SLOs at this scale, so exit code 1 is expected; anything other
# than 0 or 1 is a crash.
file(REMOVE_RECURSE ${WORK_DIR}/chaos-golden)
execute_process(
    COMMAND ${POLCACTL} run --scenario-file ${SCENARIO}
            --out-dir ${WORK_DIR}/chaos-golden
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
if(NOT rc EQUAL 0 AND NOT rc EQUAL 1)
    message(FATAL_ERROR "polcactl run crashed: ${rc}")
endif()

foreach(artifact result.csv metrics.csv violations.csv)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                ${GOLDEN_DIR}/${artifact}
                ${WORK_DIR}/chaos-golden/${artifact}
        RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
        message(FATAL_ERROR "${artifact} differs from the golden copy "
                            "in ${GOLDEN_DIR}")
    endif()
endforeach()
