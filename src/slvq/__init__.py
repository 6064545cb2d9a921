"""Soft-label vector-quantized compression toolkit: import each name from its
module, one of labels, vqae, optim, baselines, budget, archive, harness, cli."""
