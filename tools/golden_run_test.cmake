# Golden run test: `polcactl run --scenario-file SCENARIO EXTRA_ARGS`
# must reproduce every file in ARTIFACTS byte for byte against the
# committed copies in GOLDEN_DIR, so a change that alters a run's
# outputs fails here and not only in a rerun-vs-rerun comparison.
# EXTRA_ARGS and ARTIFACTS are space-separated.  A run that misses
# its SLOs exits 1, which is allowed; anything other than 0 or 1 is a
# crash.
separate_arguments(extra_args UNIX_COMMAND "${EXTRA_ARGS}")
separate_arguments(artifacts UNIX_COMMAND "${ARTIFACTS}")
file(REMOVE_RECURSE ${WORK_DIR})
execute_process(
    COMMAND ${POLCACTL} run --scenario-file ${SCENARIO} ${extra_args}
            --out-dir ${WORK_DIR}
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
if(NOT rc EQUAL 0 AND NOT rc EQUAL 1)
    message(FATAL_ERROR "polcactl run crashed: ${rc}")
endif()

foreach(artifact ${artifacts})
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                ${GOLDEN_DIR}/${artifact} ${WORK_DIR}/${artifact}
        RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
        message(FATAL_ERROR "${artifact} differs from the golden copy "
                            "in ${GOLDEN_DIR}")
    endif()
endforeach()
