# Golden-output check. Runs pinned scenarios in WORK_DIR and compares
# their stdout and output files byte for byte with the files checked in
# next to this script; outputs too large to check in (traces) are
# compared by SHA-256 instead. One run checks one program, or one suite
# of mcdla_sim cases:
#  - PROGRAM=<bench or example> runs it with ARGS (a space-separated
#    string) and compares its stdout as <program>.stdout and every file
#    it writes, those named in HASHED (space-separated) by digest;
#  - SUITE=mcdla_sim runs mcdla_sim's modes and observers, SUITE=audit
#    the determinism audit's event counts, peak depths and stream hashes
#    on both event-queue backends, and SUITE=trace two traced runs whose
#    Perfetto JSON must parse strictly under PYTHON (when given).
# With MCDLA_REGEN_GOLDENS set in the environment, the fresh outputs and
# digests overwrite the checked-in files instead;
# tools/regen_goldens.sh runs every golden ctest that way.
#
#   cmake -DWORK_DIR=<scratch dir> -DPROGRAM=<program> [-DARGS=<args>] \
#         [-DHASHED=<files>] -P tests/golden/run_goldens.cmake
#   cmake -DWORK_DIR=<scratch dir> -DMCDLA_SIM=<mcdla_sim> \
#         -DSUITE=mcdla_sim|audit|trace [-DPYTHON=<python3>] \
#         -P tests/golden/run_goldens.cmake

if(NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "run_goldens.cmake: -DWORK_DIR=... is required")
endif()
if(NOT DEFINED PROGRAM AND NOT DEFINED MCDLA_SIM)
  message(FATAL_ERROR
    "run_goldens.cmake: -DPROGRAM=... or -DMCDLA_SIM=... is required")
endif()
set(REGEN FALSE)
if(DEFINED ENV{MCDLA_REGEN_GOLDENS})
  set(REGEN TRUE)
endif()

set(golden_dir ${CMAKE_CURRENT_LIST_DIR})
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(mismatches "")

# golden_run(<name> <command>...): runs the command in WORK_DIR with its
# stdout in <name>.stdout; a non-zero exit fails the check.
macro(golden_run name)
  execute_process(COMMAND ${ARGN}
    WORKING_DIRECTORY ${WORK_DIR}
    OUTPUT_FILE ${WORK_DIR}/${name}.stdout
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "golden ${name}: ${ARGN} exited with ${rc}")
  endif()
endmacro()

# golden_compare(<files>): compares each WORK_DIR file with its golden,
# or with REGEN overwrites the golden.
macro(golden_compare)
  foreach(out ${ARGN})
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

# golden_hash(<name> <files>): compares the files by digest against
# <name>.sha256, one "<sha256>  <file>" line each (the sha256sum
# format), or with REGEN overwrites it.
macro(golden_hash name)
  set(digests "")
  foreach(out ${ARGN})
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
endmacro()

# golden_case(<name> [NO_STDOUT] OUTPUTS <files> HASHED <files>
#             ARGS <args>):
# runs mcdla_sim --quiet and compares the run's stdout as <name>.stdout
# (unless NO_STDOUT), each OUTPUTS file, and the HASHED files by
# digest. Output paths stay relative so the "wrote <file>" lines are
# stable.
macro(golden_case name)
  cmake_parse_arguments(case "NO_STDOUT" "" "OUTPUTS;HASHED;ARGS"
    ${ARGN})
  golden_run(${name} ${MCDLA_SIM} ${case_ARGS} --quiet)
  if(NOT case_NO_STDOUT)
    golden_compare(${name}.stdout)
  endif()
  golden_compare(${case_OUTPUTS})
  if(case_HASHED)
    golden_hash(${name} ${case_HASHED})
  endif()
endmacro()

if(DEFINED PROGRAM)
  get_filename_component(name ${PROGRAM} NAME)
  separate_arguments(args UNIX_COMMAND "${ARGS}")
  golden_run(${name} ${PROGRAM} ${args})
  file(GLOB outputs LIST_DIRECTORIES false RELATIVE ${WORK_DIR}
    ${WORK_DIR}/*)
  separate_arguments(hashed UNIX_COMMAND "${HASHED}")
  if(hashed)
    list(REMOVE_ITEM outputs ${hashed})
    golden_hash(${name} ${hashed})
  endif()
  golden_compare(${outputs})
elseif(SUITE STREQUAL "mcdla_sim")
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

  # The blocked four-job mix under FIFO and under backfill.
  foreach(scheduler fifo backfill)
    golden_case(cluster_mix_${scheduler}
      ARGS --cluster --design mc-b --allocator first-fit
           --scheduler ${scheduler}
           --job-trace ${golden_dir}/cluster_mix.trace)
  endforeach()

  # The observers: trace, metrics and critical path of one iteration,
  # then trace and metrics of a cluster and a serve run.
  golden_case(dp_observed
    OUTPUTS dp_metrics.csv dp_critical_path.csv
    HASHED dp.trace.json
    ARGS --workload AlexNet --design mc-b --trace dp.trace.json
         --metrics-csv dp_metrics.csv
         --critical-path-csv dp_critical_path.csv)

  # The same run's slack histogram and causal summary. A case of its
  # own, so dp_observed's stdout keeps its pinned "wrote" lines.
  golden_case(dp_causal NO_STDOUT
    OUTPUTS dp_slack.csv dp_causal.json
    ARGS --workload AlexNet --design mc-b --slack-csv dp_slack.csv
         --causal-json dp_causal.json)

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

  # The critical path of every mode under SimCheck, which also checks
  # the causal DAG. Only the paths are pinned: the stdout carries the
  # event counts. The mp and pp paths are compared by digest.
  foreach(mode mp pp)
    golden_case(${mode}_critical_path NO_STDOUT
      HASHED ${mode}_critical_path.csv
      ARGS --workload AlexNet --mode ${mode} --simcheck
           --critical-path-csv ${mode}_critical_path.csv)
  endforeach()
  golden_case(cluster_critical_path NO_STDOUT
    OUTPUTS cluster_critical_path.csv
    ARGS --cluster --jobs 3 --seed 3 --simcheck
         --critical-path-csv cluster_critical_path.csv)
  golden_case(serve_critical_path NO_STDOUT
    OUTPUTS serve_critical_path.csv
    ARGS --serve --workload AlexNet --replicas 2 --requests 16
         --job-trace ${golden_dir}/serve_jobs.trace --simcheck
         --critical-path-csv serve_critical_path.csv)

  # A sweep's observer outputs take the workload suffix on the last
  # path component only; the dot in the directory name must stay put,
  # and an output that cannot be opened fails the run.
  file(MAKE_DIRECTORY ${WORK_DIR}/out.d)
  golden_case(output_paths
    ARGS --workload all --batch 64 --profile-json out.d/prof)

  # One unobserved iteration per parallelization.
  foreach(mode dp mp pp)
    golden_case(${mode}
      OUTPUTS ${mode}.csv
      ARGS --workload AlexNet --mode ${mode} --csv ${mode}.csv)
  endforeach()

  # The --stats dump of one iteration: devices, DMA engines, the
  # collective engine and sockets/PCIe on DC-DLA; DIMM buses, ring
  # links and the pagers on MC-DLA(B).
  golden_case(stats_dc ARGS --workload AlexNet --design dc --stats)
  golden_case(stats_mcb ARGS --workload AlexNet --design mc-b --stats)

  # Three iterations of one run: the result of the last iteration and
  # its per-channel usage.
  golden_case(iter3_dc
    OUTPUTS iter3_dc.csv iter3_dc_channels.csv
    ARGS --workload GoogLeNet --design dc --iterations 3
         --csv iter3_dc.csv --channel-csv iter3_dc_channels.csv)
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
elseif(SUITE STREQUAL "trace")
  # A traced cluster and a traced serving run. Only their exit status
  # and, with PYTHON, the strict parse of each trace (json.load, the
  # parser of python -m json.tool, without its slow reprinting) are
  # checked: a JSON-escaping bug fails here instead of rendering a
  # blank Perfetto tab.
  golden_case(trace_cluster NO_STDOUT
    ARGS --design mc-b --cluster --jobs 4 --arrival-rate 50 --seed 3
         --trace trace_cluster.json --metrics-csv metrics_cluster.csv)
  golden_case(trace_serve NO_STDOUT
    ARGS --design mc-b --serve --workload AlexNet --replicas 2
         --requests 30 --request-rate 200 --slo-ms 50 --seed 2
         --trace trace_serve.json)
  if(PYTHON)
    foreach(trace trace_cluster.json trace_serve.json)
      execute_process(COMMAND ${PYTHON} -c
          "import json, sys; json.load(open(sys.argv[1]))" ${trace}
        WORKING_DIRECTORY ${WORK_DIR}
        OUTPUT_QUIET
        RESULT_VARIABLE rc)
      if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${trace} is not strict JSON")
      endif()
    endforeach()
  endif()
else()
  message(FATAL_ERROR "run_goldens.cmake: unknown SUITE '${SUITE}' "
    "(mcdla_sim, audit, trace)")
endif()

if(mismatches)
  message(FATAL_ERROR
    "golden outputs differ: ${mismatches}\n"
    "fresh copies are in ${WORK_DIR}; diff them against ${golden_dir}, "
    "and if the change is intended run tools/regen_goldens.sh")
endif()
