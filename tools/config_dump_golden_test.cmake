# `polcactl config dump` of every shipped scenario must match its
# golden in GOLDEN_DIR byte for byte: <stem>.toml, or one
# <stem>.point-<i>.toml per sweep point (`--point i`).  Dumps run from
# SOURCE_DIR with relative paths, so provenance is checkout-free.  To
# re-record, run the same dump from the source dir into the golden.
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
file(GLOB scenarios RELATIVE ${SOURCE_DIR} ${SOURCE_DIR}/scenarios/*.toml)
foreach(scenario ${scenarios})
    get_filename_component(stem ${scenario} NAME_WE)
    file(GLOB goldens ${GOLDEN_DIR}/${stem}.toml
                      ${GOLDEN_DIR}/${stem}.point-*.toml)
    if(NOT goldens)
        message(FATAL_ERROR "${scenario} has no config-dump golden in "
                            "${GOLDEN_DIR}")
    endif()
    foreach(golden ${goldens})
        get_filename_component(name ${golden} NAME)
        set(point_args "")
        if(name MATCHES "\\.point-([0-9]+)\\.toml$")
            set(point_args --point ${CMAKE_MATCH_1})
        endif()
        execute_process(
            COMMAND ${POLCACTL} config dump --scenario-file ${scenario}
                    ${point_args}
            WORKING_DIRECTORY ${SOURCE_DIR}
            OUTPUT_FILE ${WORK_DIR}/${name})
        execute_process(
            COMMAND ${CMAKE_COMMAND} -E compare_files
                    ${golden} ${WORK_DIR}/${name}
            RESULT_VARIABLE differs)
        if(NOT differs EQUAL 0)
            message(FATAL_ERROR "config dump of ${scenario} differs "
                                "from ${golden}")
        endif()
    endforeach()
endforeach()
