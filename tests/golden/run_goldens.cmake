# Golden-output check for mcdla_sim. Runs each pinned scenario in
# WORK_DIR and compares its stdout and CSV outputs byte for byte with
# the files checked in next to this script. With -DREGEN=ON the fresh
# outputs overwrite the checked-in files instead; tools/regen_goldens.sh
# wraps that mode.
#
#   cmake -DMCDLA_SIM=<mcdla_sim> -DWORK_DIR=<scratch dir> \
#         [-DREGEN=ON] -P tests/golden/run_goldens.cmake

foreach(var MCDLA_SIM WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_goldens.cmake: -D${var}=... is required")
  endif()
endforeach()

set(golden_dir ${CMAKE_CURRENT_LIST_DIR})
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(mismatches "")

# golden_case(<name> OUTPUTS <files written> ARGS <mcdla_sim args>):
# the run's stdout is compared as <name>.stdout, plus each OUTPUTS file.
# Output paths stay relative so the "wrote <file>" lines are stable.
macro(golden_case name)
  cmake_parse_arguments(case "" "" "OUTPUTS;ARGS" ${ARGN})
  execute_process(COMMAND ${MCDLA_SIM} ${case_ARGS} --quiet
    WORKING_DIRECTORY ${WORK_DIR}
    OUTPUT_FILE ${WORK_DIR}/${name}.stdout
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "golden ${name}: mcdla_sim exited with ${rc}")
  endif()
  foreach(out ${name}.stdout ${case_OUTPUTS})
    if(REGEN)
      configure_file(${WORK_DIR}/${out} ${golden_dir}/${out} COPYONLY)
    else()
      execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
        ${WORK_DIR}/${out} ${golden_dir}/${out}
        RESULT_VARIABLE differs)
      if(NOT differs EQUAL 0)
        list(APPEND mismatches ${out})
      endif()
    endif()
  endforeach()
endmacro()

golden_case(cluster
  OUTPUTS cluster_jobs.csv cluster_pool.csv
  ARGS --cluster --jobs 6 --seed 3 --scheduler backfill
       --allocator buddy --placement compact
       --csv cluster_jobs.csv --pool-csv cluster_pool.csv)

golden_case(serve
  OUTPUTS serve_requests.csv serve_replicas.csv
  ARGS --serve --workload AlexNet --replicas 2
       --job-trace ${golden_dir}/serve_jobs.trace
       --csv serve_requests.csv --replica-csv serve_replicas.csv)

if(mismatches)
  message(FATAL_ERROR
    "golden outputs differ: ${mismatches}\n"
    "fresh copies are in ${WORK_DIR}; diff them against ${golden_dir}, "
    "and if the change is intended run tools/regen_goldens.sh")
endif()
