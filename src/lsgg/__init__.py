"""Desk-scale lifelong scene-graph predicate prediction: a knowledge-keyed
prompt pool with retrieval-based rehearsal, a frozen pooled-readout decoder,
and the full staged evaluation protocol."""

__version__ = "0.1.0"

from .rng import SeededRng
from .datastream import (RelationInstance, SynthConfig, TaskSchedule, StageDataset,
                         load_embeddings, make_stage_datasets, predicate_counts,
                         save_embeddings, split_by_frequency, split_random, synth_generate)
from .prompt_pool import (Exemplar, PromptEntry, PromptPool, admit_exemplar,
                          deserialize_pool, init_pool, retrieve_exemplar,
                          retrieve_topk_prompts, serialize_pool)
from .token_mapper import MapperParams, TokenBlock, encode_exemplar, encode_feature, init_mapper
from .scorer import (AssembledPrompt, PredicateVocab, Rankings, ScorerParams, assemble_prompt,
                     build_vocab, default_vocab, init_scorer, load_vocab,
                     rank_predicates, save_vocab, score)
from .trainer import (AdamW, TrainConfig, TrainableSet, batch_loss_and_grads, grad_step,
                      init_y_mask, loss_key_alignment, loss_predicate_ce, loss_total,
                      predict_ranked, train_stage)
from .metrics import (AccuracyMatrix, GTRecord, MetricReport, PredRecord,
                      forgetting_measure, m_at_k, mean_recall_at_k, recall_at_k,
                      recall_at_ks, score_wtd, weighted_map)
from .harness import (ExperimentConfig, ResultsBundle, preset_config, report,
                      run_ablation_suite, run_experiment)
