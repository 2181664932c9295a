# Golden-output check. Runs each pinned scenario in WORK_DIR and
# compares its stdout and CSV outputs byte for byte with the files
# checked in next to this script; outputs too large to check in (traces)
# are compared by SHA-256 instead. SUITE picks the cases: "sim" (the
# default) runs mcdla_sim's modes, "figures" the paper-figure benches
# that sit next to mcdla_sim in the build tree, "audit" the determinism
# audit's event counts, peak depths and stream hashes on both
# event-queue backends.
# With -DREGEN=ON the fresh outputs and digests overwrite the
# checked-in files instead; tools/regen_goldens.sh wraps that mode.
#
#   cmake -DMCDLA_SIM=<mcdla_sim> -DWORK_DIR=<scratch dir> \
#         [-DSUITE=sim|figures|audit] [-DREGEN=ON] \
#         -P tests/golden/run_goldens.cmake

foreach(var MCDLA_SIM WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_goldens.cmake: -D${var}=... is required")
  endif()
endforeach()

if(NOT DEFINED SUITE)
  set(SUITE sim)
endif()

set(golden_dir ${CMAKE_CURRENT_LIST_DIR})
get_filename_component(bin_dir ${MCDLA_SIM} DIRECTORY)
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(mismatches "")

# golden_case(<name> [PROGRAM <bench>] OUTPUTS <files> HASHED <files>
#             ARGS <args>):
# runs mcdla_sim --quiet, or the build tree's <bench> as given, and
# compares the run's stdout as <name>.stdout, plus each OUTPUTS file.
# The HASHED files are compared by digest against <name>.sha256, one
# "<sha256>  <file>" line each (the sha256sum format). Output paths stay
# relative so the "wrote <file>" lines are stable.
macro(golden_case name)
  cmake_parse_arguments(case "" "PROGRAM" "OUTPUTS;HASHED;ARGS" ${ARGN})
  if(case_PROGRAM)
    set(command ${bin_dir}/${case_PROGRAM} ${case_ARGS})
  else()
    set(command ${MCDLA_SIM} ${case_ARGS} --quiet)
  endif()
  execute_process(COMMAND ${command}
    WORKING_DIRECTORY ${WORK_DIR}
    OUTPUT_FILE ${WORK_DIR}/${name}.stdout
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "golden ${name}: ${command} exited with ${rc}")
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
  if(case_HASHED)
    set(digests "")
    foreach(out ${case_HASHED})
      file(SHA256 ${WORK_DIR}/${out} digest)
      string(APPEND digests "${digest}  ${out}\n")
    endforeach()
    file(WRITE ${WORK_DIR}/${name}.sha256 "${digests}")
    if(REGEN)
      configure_file(${WORK_DIR}/${name}.sha256 ${golden_dir}/${name}.sha256
        COPYONLY)
    else()
      set(expected "")
      if(EXISTS ${golden_dir}/${name}.sha256)
        file(READ ${golden_dir}/${name}.sha256 expected)
      endif()
      if(NOT expected STREQUAL digests)
        list(APPEND mismatches ${name}.sha256)
      endif()
    endif()
  endif()
endmacro()

if(SUITE STREQUAL "sim")
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

  # The observers: trace, metrics and critical path of one iteration,
  # then trace and metrics of a cluster and a serve run.
  golden_case(dp_observed
    OUTPUTS dp_metrics.csv dp_critical_path.csv
    HASHED dp.trace.json
    ARGS --workload AlexNet --design mc-b --trace dp.trace.json
         --metrics-csv dp_metrics.csv
         --critical-path-csv dp_critical_path.csv)

  golden_case(cluster_observed
    OUTPUTS cluster_metrics.csv
    HASHED cluster.trace.json
    ARGS --cluster --jobs 3 --seed 3 --trace cluster.trace.json
         --metrics-csv cluster_metrics.csv --metrics-period-us 1000)

  golden_case(serve_observed
    OUTPUTS serve_metrics.csv
    HASHED serve.trace.json
    ARGS --serve --workload AlexNet --replicas 2 --requests 16
         --job-trace ${golden_dir}/serve_jobs.trace
         --trace serve.trace.json
         --metrics-csv serve_metrics.csv --metrics-period-us 1000)

  # One unobserved iteration per parallelization.
  foreach(mode dp mp pp)
    golden_case(${mode}
      OUTPUTS ${mode}.csv
      ARGS --workload AlexNet --mode ${mode} --csv ${mode}.csv)
  endforeach()
elseif(SUITE STREQUAL "audit")
  # audit_run(<name> <args>): runs `mcdla_sim <args> --audit-determinism`
  # (the scenario twice from fresh state; a non-zero exit means the two
  # event streams differed) on each backend and appends
  # "<name>: N events, peak P pending, stream hash H" to
  # audit_<backend>.txt. Both files must equal audit.txt: the executed
  # (tick, label) stream and the peak number of pending events are
  # pinned across versions, and the backends must agree on them.
  set(audit_heap "")
  set(audit_calendar "")
  macro(audit_run name)
    foreach(backend heap calendar)
      set(command ${MCDLA_SIM} ${ARGN} --quiet --event-queue ${backend}
        --audit-determinism)
      execute_process(COMMAND ${command}
        WORKING_DIRECTORY ${WORK_DIR}
        OUTPUT_VARIABLE out
        RESULT_VARIABLE rc)
      if(NOT rc EQUAL 0)
        message(FATAL_ERROR "audit ${name}: ${command} exited with ${rc}")
      endif()
      string(REGEX MATCH
        "[0-9]+ events, peak [0-9]+ pending, stream hash [0-9a-f]+" line
        "${out}")
      string(APPEND audit_${backend} "${name}: ${line}\n")
    endforeach()
  endmacro()

  # The runs of the CI determinism-audit job: every parallelization,
  # mp under the tree and hierarchical collectives, a cluster, and
  # serving beside co-located training.
  foreach(mode dp mp pp)
    audit_run(${mode} --workload AlexNet --mode ${mode})
  endforeach()
  audit_run(mp_tree --workload AlexNet --mode mp --collective tree)
  audit_run(mp_hierarchical_fat_tree --workload AlexNet --mode mp
    --collective hierarchical --topology fat-tree)
  audit_run(cluster --cluster --jobs 6 --seed 3)
  audit_run(serve --serve --workload AlexNet --replicas 2 --requests 30
    --request-rate 200 --slo-ms 50 --seed 2
    --job-trace ${golden_dir}/serve_jobs.trace)

  # Synthetic cluster mixes and a serving run without co-located
  # training: a small and a large job mix, and a small request stream.
  audit_run(cluster_smoke_4jobs --design mc-b --cluster --jobs 4
    --arrival-rate 50 --seed 7)
  audit_run(cluster_large_16jobs --design mc-b --cluster --jobs 16
    --arrival-rate 25 --seed 11)
  audit_run(serving_smoke_20req --design mc-b --serve --workload AlexNet
    --replicas 2 --batch 8 --requests 20 --request-rate 200 --slo-ms 50
    --seed 5)

  foreach(backend heap calendar)
    file(WRITE ${WORK_DIR}/audit_${backend}.txt "${audit_${backend}}")
  endforeach()
  if(REGEN)
    if(NOT audit_heap STREQUAL audit_calendar)
      message(FATAL_ERROR "the backends' audits differ; compare "
        "${WORK_DIR}/audit_heap.txt and audit_calendar.txt")
    endif()
    configure_file(${WORK_DIR}/audit_heap.txt ${golden_dir}/audit.txt
      COPYONLY)
  else()
    file(READ ${golden_dir}/audit.txt expected)
    foreach(backend heap calendar)
      if(NOT expected STREQUAL audit_${backend})
        list(APPEND mismatches audit_${backend}.txt)
      endif()
    endforeach()
  endif()
elseif(SUITE STREQUAL "figures")
  # The paper's headline tables and two ablations; fig13 and fig11 run
  # their grids on a thread pool, and their output must not depend on
  # it.
  golden_case(fig13 PROGRAM fig13_performance)
  golden_case(fig11 PROGRAM fig11_latency_breakdown)
  golden_case(abl_page_policy PROGRAM abl_page_policy)
  golden_case(abl_pipeline PROGRAM abl_pipeline
    OUTPUTS abl_pipeline.csv
    ARGS --smoke --csv abl_pipeline.csv)
else()
  message(FATAL_ERROR "run_goldens.cmake: unknown SUITE '${SUITE}' "
    "(sim, figures, audit)")
endif()

if(mismatches)
  message(FATAL_ERROR
    "golden outputs differ: ${mismatches}\n"
    "fresh copies are in ${WORK_DIR}; diff them against ${golden_dir}, "
    "and if the change is intended run tools/regen_goldens.sh")
endif()
