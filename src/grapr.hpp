#pragma once
// grapr — umbrella header: the full public API of the parallel community
// detection framework.
//
//   #include <grapr.hpp>
//   grapr::Random::setSeed(1);
//   grapr::Graph g = grapr::RmatGenerator(18, 16).generate();
//   grapr::Plm plm;
//   grapr::Partition communities = plm.run(g);
//   double q = grapr::Modularity().getQuality(communities, g);

#include "support/checksum.hpp"
#include "support/common.hpp"
#include "support/fault.hpp"
#include "support/logging.hpp"
#include "support/parallel.hpp"
#include "support/progress.hpp"
#include "support/random.hpp"
#include "support/timer.hpp"

#include "graph/graph.hpp"
#include "graph/csr_graph.hpp"
#include "graph/graph_builder.hpp"
#include "graph/distances.hpp"
#include "graph/graph_tools.hpp"
#include "graph/graph_log.hpp"
#include "graph/stream_engine.hpp"
#include "graph/wal.hpp"

#include "structures/partition.hpp"
#include "structures/delta_csr.hpp"
#include "structures/cover.hpp"
#include "structures/union_find.hpp"

#include "io/binary_csr.hpp"
#include "io/io_error.hpp"
#include "io/mapped_file.hpp"
#include "io/parallel_edgelist.hpp"
#include "io/parallel_metis.hpp"
#include "io/parse_options.hpp"
#include "io/dot_writer.hpp"
#include "io/gml_io.hpp"
#include "io/edgelist_io.hpp"
#include "io/metis_io.hpp"
#include "io/partition_io.hpp"

#include "generators/barabasi_albert.hpp"
#include "generators/configuration_model.hpp"
#include "generators/degree_sequence.hpp"
#include "generators/erdos_renyi.hpp"
#include "generators/generator.hpp"
#include "generators/grid.hpp"
#include "generators/lfr.hpp"
#include "generators/planted_partition.hpp"
#include "generators/rmat.hpp"
#include "generators/holme_kim.hpp"
#include "generators/simple_graphs.hpp"
#include "generators/watts_strogatz.hpp"

#include "quality/clustering_coefficient.hpp"
#include "quality/community_stats.hpp"
#include "quality/conductance.hpp"
#include "quality/core_decomposition.hpp"
#include "quality/connected_components.hpp"
#include "quality/coverage.hpp"
#include "quality/graph_stats.hpp"
#include "quality/modularity.hpp"
#include "quality/partition_similarity.hpp"

#include "coarsening/parallel_coarsening.hpp"
#include "coarsening/projector.hpp"

#include "community/combiner.hpp"
#include "community/detector.hpp"
#include "community/local_expansion.hpp"
#include "community/overlapping_lpa.hpp"
#include "community/epp.hpp"
#include "community/plm.hpp"
#include "community/plmr.hpp"
#include "community/plp.hpp"
#include "community/streaming_update.hpp"

#include "baselines/cggc.hpp"
#include "baselines/clu_matching.hpp"
#include "baselines/label_prop_seq.hpp"
#include "baselines/louvain_seq.hpp"
#include "baselines/registry.hpp"
#include "baselines/rg.hpp"
