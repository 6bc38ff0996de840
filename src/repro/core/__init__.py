"""Q-VR core: foveation model, partition engine, LIWC, UCA, controllers."""
