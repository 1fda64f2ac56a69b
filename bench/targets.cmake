# Included from the top-level CMakeLists (not add_subdirectory) so that
# build/bench/ contains ONLY the bench binaries — `for b in build/bench/*`
# then runs clean.
function(soma_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE ${ARGN})
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

soma_add_bench(bench_table1_openfoam_summary soma_experiments)
soma_add_bench(bench_fig4_openfoam_scaling soma_experiments)
soma_add_bench(bench_fig5_tau_mpi_breakdown soma_experiments)
soma_add_bench(bench_fig6_rank_placement soma_experiments)
soma_add_bench(bench_fig7_cpu_utilization soma_experiments)
soma_add_bench(bench_fig8_rp_utilization soma_experiments)
soma_add_bench(bench_table2_ddmd_summary soma_experiments)
soma_add_bench(bench_fig9_ddmd_tuning soma_experiments)
soma_add_bench(bench_fig10_scaling_a soma_experiments)
soma_add_bench(bench_fig11_scaling_b soma_experiments)
soma_add_bench(bench_overhead_analysis soma_experiments)
soma_add_bench(bench_ablation_publish_cost soma_core soma_sim)
soma_add_bench(bench_ablation_batch_publish soma_core soma_sim)
soma_add_bench(bench_ablation_shared_sched soma_experiments)
soma_add_bench(bench_micro_datamodel soma_cluster benchmark::benchmark)
soma_add_bench(bench_micro_rpc soma_core soma_net benchmark::benchmark)
soma_add_bench(bench_ablation_placement_policy soma_experiments)
soma_add_bench(bench_raptor_throughput soma_raptor)
