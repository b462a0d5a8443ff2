"""Desk-scale lifelong scene-graph predicate prediction: a knowledge-keyed
prompt pool with retrieval-based rehearsal, a frozen pooled-readout decoder,
and the full staged evaluation protocol."""

__version__ = "0.1.0"

from .numerics import use_one_blas_thread
from .rng import SeededRng
from .datastream import (RelationTable, Rows, SynthConfig, StageDataset, load_embeddings,
                         make_schedule, make_stage_datasets, save_embeddings,
                         split_by_frequency, split_random, synth_generate)
from .prompt_pool import (PromptPool, admit_exemplar, deserialize_pool, init_pool,
                          retrieve_entries, serialize_pool)
from .token_mapper import MapperParams, init_mapper
from .scorer import (PredicateVocab, Rankings, ScorerParams, build_vocab, default_vocab,
                     init_scorer, load_vocab, save_vocab)
from .trainer import (AdamW, TrainConfig, TrainableSet, init_y_mask,
                      loss_total, predict_ranked, train_stage)
from .metrics import (AccuracyMatrix, GTTable, MetricReport, PredTable,
                      forgetting_measure, m_at_k, mean_recall_at_k, recall_at_k,
                      recall_at_ks, score_wtd, weighted_map)
from .harness import (ExperimentConfig, ResultsBundle, preset_config, report,
                      run_ablation_suite, run_experiment)

use_one_blas_thread()  # run files and CPU time must not follow the host's cores
